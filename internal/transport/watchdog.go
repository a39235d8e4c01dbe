package transport

import (
	"sync"
	"time"
)

// Watchdog tracks client liveness. The server beats it on every received
// message (including heartbeats); the launcher polls Expired to find
// unresponsive clients and "properly kill and restart faulty ones" (§3.1).
type Watchdog struct {
	mu      sync.Mutex
	last    map[int32]time.Time
	timeout time.Duration
	now     func() time.Time
}

// NewWatchdog builds a watchdog with the given liveness timeout, reading
// the time from now (time.Now, or a test's fake clock).
func NewWatchdog(timeout time.Duration, now func() time.Time) *Watchdog {
	return &Watchdog{
		last:    make(map[int32]time.Time),
		timeout: timeout,
		now:     now,
	}
}

// Beat records activity from a client.
func (w *Watchdog) Beat(clientID int32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.last[clientID] = w.now()
}

// Remove forgets a client (after Goodbye or a deliberate kill).
func (w *Watchdog) Remove(clientID int32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.last, clientID)
}

// Expired returns the clients whose last activity is older than the
// timeout. Expired clients are removed from tracking, so each expiry is
// reported once; callers restart the client, which re-registers it via
// Beat.
func (w *Watchdog) Expired() []int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int32
	now := w.now()
	for id, last := range w.last {
		if now.Sub(last) > w.timeout {
			out = append(out, id)
			delete(w.last, id)
		}
	}
	return out
}
