// Package testlevel lets tests outside internal/tensor run at each of its
// GEMM kernel levels (portable, AVX2, AVX-512; see tensor's microkernel.go).
// The levels are bit-equal, so nothing but a test has a reason to choose
// one: tensor exposes no exported switch, no flag and no environment
// variable, and this package reaches its unexported hook by linkname. Only
// _test files may import it.
package testlevel

import (
	"testing"
	_ "unsafe" // for go:linkname

	_ "melissa/internal/tensor" // the hook's package must be in the binary
)

// names are the kernel levels there are, lowest first, whatever the machine
// running the test supports.
var names = []string{"portable", "avx2", "avx512"}

//go:linkname pinKernelLevel melissa/internal/tensor.pinKernelLevel
func pinKernelLevel(name string) (restore func())

// Each calls f once per kernel level, lowest first, with that level pinned
// as tensor's active one; a level the machine cannot run is skipped, by
// name, in the log. f runs on the caller's test — no subtests, so wrapping
// an existing test renames nothing — and should put level in its failure
// messages. The level is process-wide: the test must not be parallel.
func Each(t testing.TB, f func(level string)) {
	t.Helper()
	for _, name := range names {
		restore := pinKernelLevel(name)
		if restore == nil {
			t.Logf("kernel level %s: not supported on this machine, skipped", name)
			continue
		}
		func() {
			defer restore()
			f(name)
		}()
	}
}
