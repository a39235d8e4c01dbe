package transport

// Deterministic fault injection for the chaos test suite. A Chaos value
// wraps net.Conn's (ring links via RingOptions.Wrap, any other connection a
// test dials via Wrap or WrapLabeled) and perturbs their traffic according
// to a seeded PRNG: dropped writes, delayed writes, duplicated writes, a
// toggleable full partition, and kill-after-N-writes. Every decision stream
// derives from ChaosConfig.Seed plus the connection's label, so a failing
// run replays exactly by re-running with the same seed (see ChaosSeed and
// the MELISSA_CHAOS_SEED environment knob).
//
// Faults are write-granular. The ring writer stages exactly one frame per
// socket write, so a dropped ring write loses one collective frame (the
// receiver times out or desyncs — a fatal link fault, by design) and a
// duplicated ring write repeats one frame.

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig selects which faults a Chaos injects. Rates are
// probabilities in [0, 1] evaluated independently per write.
type ChaosConfig struct {
	// Seed drives every probabilistic decision. Two Chaos values with the
	// same Seed and the same connection labels make identical decisions.
	Seed uint64
	// DropRate is the probability a write is silently discarded.
	DropRate float64
	// DuplicateRate is the probability a write is applied twice.
	DuplicateRate float64
	// DelayRate is the probability a write is stalled by Delay first.
	DelayRate float64
	Delay     time.Duration
	// KillAfterWrites closes the connection after that many non-dropped
	// writes (0 = never): a deterministic mid-collective kill switch.
	KillAfterWrites int
	// StallReadsAfter freezes the connection's read side after that many
	// successful reads (0 = never): the peer keeps accepting our writes but
	// we stop consuming its responses — a wedged client from the serving
	// tier's point of view. Stalled reads honor the read deadline and
	// Close, like a partition.
	StallReadsAfter int
	// ReadDelayRate is the probability each read is stalled by ReadDelay
	// before touching the socket: a slow-drip client that drains responses
	// far slower than it issues requests.
	ReadDelayRate float64
	ReadDelay     time.Duration
	// HalfOpenAfterWrites turns the connection half-open after that many
	// non-dropped writes (0 = never): subsequent writes are blackholed
	// (claiming success, like a peer that vanished without a RST) and
	// reads stall until the deadline.
	HalfOpenAfterWrites int
}

// Chaos injects faults into wrapped connections. The zero ChaosConfig
// wraps transparently (useful to pre-wire chaos and enable faults later
// via Partition).
type Chaos struct {
	cfg         ChaosConfig
	partitioned atomic.Bool
	nextLabel   atomic.Int64
}

// NewChaos builds a fault injector.
func NewChaos(cfg ChaosConfig) *Chaos { return &Chaos{cfg: cfg} }

// ChaosSeed returns the seed to use for a chaos run: the value of the
// MELISSA_CHAOS_SEED environment variable when set (so a CI failure is
// replayable locally), def otherwise.
func ChaosSeed(def uint64) uint64 {
	if s := os.Getenv("MELISSA_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// Partition toggles a full partition: while on, every wrapped connection
// blackholes writes and stalls reads (returning a timeout once the read
// deadline passes, exactly like a silent peer).
func (c *Chaos) Partition(on bool) { c.partitioned.Store(on) }

// Wrap wraps conn with an auto-assigned label (its wrap-order index).
// When wrap order is itself nondeterministic (concurrent dials), use
// WrapLabeled with a stable label for exact replay.
func (c *Chaos) Wrap(conn net.Conn) net.Conn {
	return c.WrapLabeled(fmt.Sprintf("conn-%d", c.nextLabel.Add(1)-1), conn)
}

// WrapLabeled wraps conn with a per-connection decision stream derived
// from the chaos seed and label (FNV-1a, so the stream is stable across
// processes and runs — unlike maphash, whose seed is process-random).
func (c *Chaos) WrapLabeled(label string, conn net.Conn) net.Conn {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &chaosConn{
		Conn: conn,
		c:    c,
		rng:  rand.New(rand.NewPCG(c.cfg.Seed, h.Sum64())),
		// Reads draw from their own stream: read and write goroutines
		// interleave nondeterministically, so sharing one rng would make
		// both streams depend on scheduling.
		rrng: rand.New(rand.NewPCG(c.cfg.Seed+1, h.Sum64())),
	}
}

// chaosTimeoutError is the net.Error a partitioned read returns at its
// deadline, indistinguishable from a genuinely silent peer.
type chaosTimeoutError struct{}

func (chaosTimeoutError) Error() string   { return "chaos: partitioned: deadline exceeded" }
func (chaosTimeoutError) Timeout() bool   { return true }
func (chaosTimeoutError) Temporary() bool { return true }

// chaosConn is one wrapped connection.
type chaosConn struct {
	net.Conn
	c    *Chaos
	rng  *rand.Rand // write-fault decisions (guarded by mu)
	rrng *rand.Rand // read-fault decisions (guarded by rmu)

	mu     sync.Mutex // serializes writes and the rng
	writes int
	killed bool

	rmu      sync.Mutex // serializes reads and the rrng
	reads    int64
	halfOpen atomic.Bool

	readDL atomic.Pointer[time.Time]
}

// stalled reports whether the read side is frozen: a partition, a
// half-open link, or the stalled-reader threshold.
func (cc *chaosConn) stalled() bool {
	if cc.c.partitioned.Load() || cc.halfOpen.Load() {
		return true
	}
	n := cc.c.cfg.StallReadsAfter
	return n > 0 && atomic.LoadInt64(&cc.reads) >= int64(n)
}

// Read forwards to the wrapped connection, except when the read side is
// stalled (partition, half-open, stalled reader), where it blocks until
// the stall lifts or the read deadline passes. A slow-drip delay, when
// configured, is applied before the real read.
func (cc *chaosConn) Read(b []byte) (int, error) {
	for cc.stalled() {
		cc.mu.Lock()
		killed := cc.killed
		cc.mu.Unlock()
		if killed {
			return 0, net.ErrClosed
		}
		if dl := cc.readDL.Load(); dl != nil && !dl.IsZero() && time.Now().After(*dl) {
			return 0, chaosTimeoutError{}
		}
		time.Sleep(2 * time.Millisecond)
	}
	cfg := &cc.c.cfg
	if cfg.ReadDelayRate > 0 && cfg.ReadDelay > 0 {
		cc.rmu.Lock()
		drip := cc.rrng.Float64() < cfg.ReadDelayRate
		cc.rmu.Unlock()
		if drip {
			time.Sleep(cfg.ReadDelay)
		}
	}
	n, err := cc.Conn.Read(b)
	if err == nil {
		atomic.AddInt64(&cc.reads, 1)
	}
	return n, err
}

// Write applies the configured faults, then forwards.
func (cc *chaosConn) Write(b []byte) (int, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.killed {
		return 0, net.ErrClosed
	}
	if cc.c.partitioned.Load() || cc.halfOpen.Load() {
		return len(b), nil // blackhole: the sender never learns
	}
	cfg := &cc.c.cfg
	if cfg.DropRate > 0 && cc.rng.Float64() < cfg.DropRate {
		return len(b), nil
	}
	if cfg.DelayRate > 0 && cc.rng.Float64() < cfg.DelayRate && cfg.Delay > 0 {
		time.Sleep(cfg.Delay)
	}
	n, err := cc.Conn.Write(b)
	if err != nil {
		return n, err
	}
	if cfg.DuplicateRate > 0 && cc.rng.Float64() < cfg.DuplicateRate {
		cc.Conn.Write(b)
	}
	cc.writes++
	if cfg.KillAfterWrites > 0 && cc.writes >= cfg.KillAfterWrites {
		cc.killed = true
		cc.Conn.Close()
	}
	if cfg.HalfOpenAfterWrites > 0 && cc.writes >= cfg.HalfOpenAfterWrites {
		cc.halfOpen.Store(true)
	}
	return n, nil
}

// SetReadDeadline tracks the deadline (for partition emulation) and
// forwards it.
func (cc *chaosConn) SetReadDeadline(t time.Time) error {
	cc.readDL.Store(&t)
	return cc.Conn.SetReadDeadline(t)
}

// SetDeadline tracks the read half and forwards.
func (cc *chaosConn) SetDeadline(t time.Time) error {
	cc.readDL.Store(&t)
	return cc.Conn.SetDeadline(t)
}

// Close marks the connection killed and closes the underlying conn.
func (cc *chaosConn) Close() error {
	cc.mu.Lock()
	cc.killed = true
	cc.mu.Unlock()
	return cc.Conn.Close()
}
