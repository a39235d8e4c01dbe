// Package testbuf fills training buffers the way the server's ingest does:
// through buffer.Blocking.PutCopy, into the rows of an arena buffer built
// by buffer.NewBlockingArena; and reads a buffer's state, which no binary
// needs, through an unexported hook of buffer it reaches by linkname. Only
// _test files may import it.
package testbuf

import (
	"testing"
	_ "unsafe" // for go:linkname

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

// State is a buffer's state, read under its lock.
type State struct {
	Len                  int  // samples resident
	Drained              bool // the buffer will never yield again
	ParkedPut, ParkedGet int  // producers waiting for room, consumers for data
	Rows, FreeRows       int  // the arena's rows, all and unleased
}

//go:linkname peek melissa/internal/buffer.peek
func peek(b *buffer.Blocking) (n int, drained bool, producers, consumers, rows, free int)

// Peek reads b's state at one instant.
func Peek(b *buffer.Blocking) State {
	var s State
	s.Len, s.Drained, s.ParkedPut, s.ParkedGet, s.Rows, s.FreeRows = peek(b)
	return s
}
