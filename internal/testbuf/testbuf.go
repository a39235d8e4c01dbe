// Package testbuf fills training buffers the way the server's ingest does:
// through buffer.Blocking.PutCopy, into the rows of an arena buffer built
// by buffer.NewBlockingArena. Only _test files may import it.
package testbuf

import (
	"testing"

	"melissa/internal/buffer"
)

// Put copies samples into b in order. A sample b refuses — a payload that
// is not one row, or reception already over — fails t; Put reports it with
// Errorf, so it may run on a producer goroutine.
func Put(t testing.TB, b *buffer.Blocking, samples ...buffer.Sample) {
	t.Helper()
	for _, s := range samples {
		if !b.PutCopy(s.SimID, s.Step, s.Input, s.Output) {
			t.Errorf("buffer refused sample (%d, %d)", s.SimID, s.Step)
		}
	}
}
