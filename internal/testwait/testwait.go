// Package testwait is the deadline every test that starts a pipeline waits
// under: a pipeline that never terminates must fail in the test that
// started it, with every goroutine's stack as evidence, instead of
// presenting as a stuck CI job. Tests wait for an event (Recv) or a
// condition (Until), never for an amount of time.
package testwait

import (
	"runtime"
	"testing"
	"time"
)

// Limit bounds every wait. It is far above what any test needs, so reaching
// it means a hang, not a slow machine.
const Limit = 60 * time.Second

// Recv returns the next value of ch. Call it on the test's own goroutine.
func Recv[T any](t testing.TB, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(Limit):
		hung(t, what)
	}
	panic("unreachable: hung ends the test")
}

// Run calls fn — a pipeline's blocking entry point — on its own goroutine
// and returns its result.
func Run[T any](t testing.TB, what string, fn func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- fn() }()
	return Recv(t, done, what)
}

// Run2 is Run for an entry point that returns a result and an error.
func Run2[A, B any](t testing.TB, what string, fn func() (A, B)) (A, B) {
	t.Helper()
	type pair struct {
		a A
		b B
	}
	p := Run(t, what, func() pair {
		a, b := fn()
		return pair{a, b}
	})
	return p.a, p.b
}

// Until returns once cond holds, polling it.
func Until(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(Limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			hung(t, what)
		}
	}
}

func hung(t testing.TB, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	t.Fatalf("timed out waiting for %s; goroutines:\n%s", what, buf[:runtime.Stack(buf, true)])
}
