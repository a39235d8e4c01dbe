package ddp

// Retry policy for the failure model introduced with the elastic training
// group: collectives and connection setup return errors instead of
// panicking, and only transient faults are retried in place — any other
// requires tearing the ring down and re-forming the group over the surviving
// ranks (internal/elastic).

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"syscall"
	"time"

	"melissa/internal/transport"
)

// transient reports whether err is a connection-establishment failure
// (refused, unreachable, dial timeout): the peer may simply not be up yet,
// so the call is worth retrying with backoff. Everything else ends the
// communicator. Established-link faults are checked first: a ring read
// deadline expiry is a dead peer (heartbeats make silence equivalent to
// death), not a retryable timeout, and an abort is a deliberate teardown.
func transient(err error) bool {
	if errors.Is(err, transport.ErrRingAborted) || errors.Is(err, transport.ErrLinkDead) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.EHOSTUNREACH) || errors.Is(err, syscall.ENETUNREACH) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// Retry runs fn up to attempts times, sleeping between attempts with
// exponential backoff and full jitter (base, 2·base, … capped at 32·base)
// as long as the error is transient. The first nil, non-retryable,
// or final error is returned; ctx cancellation stops the loop early.
func Retry(ctx context.Context, attempts int, base time.Duration, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	backoff := base
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil || !transient(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff)))
		select {
		case <-ctx.Done():
			return fmt.Errorf("ddp: retry canceled: %w (last error: %v)", context.Cause(ctx), err)
		case <-time.After(sleep):
		}
		if backoff < 32*base {
			backoff *= 2
		}
	}
	return fmt.Errorf("ddp: %d attempts exhausted: %w", attempts, err)
}
