package ddp

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/testwait"
)

// TestBarrierBrokenByFailedRank: a rank that leaves its step with an error
// never reaches the barrier, so the barrier must be breakable — everyone
// parked there and everyone who arrives later gets the error instead of a
// wait for a rank that will not come. The trainer-level half, a run whose
// communicator is aborted, is the test of the same name in core.
func TestBarrierBrokenByFailedRank(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		const ranks = 4
		b := newBarrier(ranks, false)
		errs := make(chan error, ranks)
		// A whole round passes everybody.
		for r := 0; r < ranks; r++ {
			go func() { errs <- b.wait(nil) }()
		}
		for r := 0; r < ranks; r++ {
			if err := testwait.Recv(t, errs, "a full round to pass the barrier"); err != nil {
				t.Fatalf("unbroken barrier returned %v", err)
			}
		}
		// ranks−1 park, the last one fails instead of arriving.
		for r := 0; r < ranks-1; r++ {
			go func() { errs <- b.wait(nil) }()
		}
		testwait.Until(t, "the ranks to park at the barrier", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.arrived == ranks-1
		})
		boom := errors.New("rank 3 lost its ring")
		b.fail(boom)
		if err := b.fail(errors.New("a later error")); err != boom { // the first one stays
			t.Fatalf("second fail returned %v, want the first error %v", err, boom)
		}
		for r := 0; r < ranks-1; r++ {
			if err := testwait.Recv(t, errs, "a parked rank to be released"); err != boom {
				t.Fatalf("parked rank released with %v, want %v", err, boom)
			}
		}
		if err := b.wait(nil); err != boom {
			t.Fatalf("late arrival got %v, want %v", err, boom)
		}
	})

	// The last arrival runs the round's work alone, before anyone leaves; an
	// error from the work breaks the barrier for every rank of the round. A
	// rank parked while the work runs stays parked through a break until the
	// work has finished, so the work never outlives a waiter.
	for _, parkOnWork := range []bool{false, true} {
		t.Run(fmt.Sprintf("work/parkOnWork=%v", parkOnWork), func(t *testing.T) {
			const ranks = 3
			b := newBarrier(ranks, parkOnWork)
			errs := make(chan error, ranks)
			runs := 0
			count := func() error { runs++; return nil }
			for r := 0; r < ranks; r++ {
				go func() { errs <- b.wait(count) }()
			}
			for r := 0; r < ranks; r++ {
				if err := testwait.Recv(t, errs, "a round with work to pass"); err != nil {
					t.Fatalf("round with work returned %v", err)
				}
			}
			if runs != 1 {
				t.Fatalf("the round's work ran %d times, want once", runs)
			}

			// Each rank reports whether the work had finished when it left.
			type left struct {
				err       error
				afterWork bool
			}
			out := make(chan left, ranks)
			var finished atomic.Bool
			started, finish := make(chan struct{}), make(chan struct{})
			for r := 0; r < ranks-1; r++ {
				go func() {
					err := b.wait(nil)
					out <- left{err, finished.Load()}
				}()
			}
			testwait.Until(t, "the ranks to park at the barrier", func() bool {
				b.mu.Lock()
				defer b.mu.Unlock()
				return b.arrived == ranks-1
			})
			go func() {
				err := b.wait(func() error {
					close(started)
					<-finish
					finished.Store(true)
					return errors.New("socket hop failed")
				})
				out <- left{err, true}
			}()
			testwait.Recv(t, started, "the last arrival to start the work")
			boom := errors.New("aborted")
			b.fail(boom)
			// A waiter the break let go while the work runs would leave now;
			// give it many times the wake-up of a parked goroutine to do so.
			for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
				runtime.Gosched()
			}
			close(finish)
			for r := 0; r < ranks; r++ {
				l := testwait.Recv(t, out, "the round's ranks to be released")
				if l.err != boom {
					t.Fatalf("rank released with %v, want the first error %v", l.err, boom)
				}
				if !l.afterWork {
					t.Fatal("a rank left while the round's work was running")
				}
			}
		})
	}
}
