package ddp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"melissa/internal/transport"
)

// timeoutErr is a net.Error whose Timeout is true, wrapping a cause — the
// shape of a socket deadline expiry.
type timeoutErr struct{ cause error }

func (e timeoutErr) Error() string   { return "i/o timeout" }
func (e timeoutErr) Unwrap() error   { return e.cause }
func (e timeoutErr) Timeout() bool   { return true }
func (e timeoutErr) Temporary() bool { return true }

var _ net.Error = timeoutErr{}

// TestTransientOrderAndRetry pins which faults Retry retries, and the order
// of the checks behind it: a ring read-deadline expiry is reported as
// ErrLinkDead and is a dead peer, not a retry, even where the error is also
// a net.Error timeout; an abort is never retried either.
func TestTransientOrderAndRetry(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"host unreachable", fmt.Errorf("dial: %w", syscall.EHOSTUNREACH), true},
		{"dial timeout", timeoutErr{}, true},
		{"context deadline", fmt.Errorf("connect: %w", context.DeadlineExceeded), true},
		{"link dead", fmt.Errorf("recv: %w", transport.ErrLinkDead), false},
		{"timeout wrapping link dead", timeoutErr{cause: transport.ErrLinkDead}, false},
		{"link dead wrapping timeout", fmt.Errorf("%w: %w", transport.ErrLinkDead, timeoutErr{}), false},
		{"aborted", fmt.Errorf("send: %w", transport.ErrRingAborted), false},
		{"timeout wrapping aborted", timeoutErr{cause: transport.ErrRingAborted}, false},
		{"anything else", errors.New("malformed ring hello"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := transient(tc.err); got != tc.transient {
				t.Fatalf("transient(%v) = %v, want %v", tc.err, got, tc.transient)
			}
			// Retry calls fn once for a fault that is not transient and
			// returns it as is; a transient one uses every attempt.
			calls := 0
			err := Retry(context.Background(), 3, time.Microsecond, func() error {
				calls++
				return tc.err
			})
			wantCalls := 1
			if tc.transient {
				wantCalls = 3
			}
			if calls != wantCalls || !errors.Is(err, tc.err) {
				t.Fatalf("Retry made %d calls and returned %v, want %d calls and the fault", calls, err, wantCalls)
			}
			if !tc.transient && err != tc.err {
				t.Fatalf("Retry returned %v, want the fault unwrapped", err)
			}
		})
	}
	calls := 0
	if err := Retry(context.Background(), 3, time.Microsecond, func() error {
		if calls++; calls < 2 {
			return syscall.ECONNREFUSED
		}
		return nil
	}); err != nil || calls != 2 {
		t.Fatalf("Retry returned %v after %d calls, want success on the second", err, calls)
	}
}
