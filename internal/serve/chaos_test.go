package serve

// Deterministic chaos for the serving tier (run under -race; seeds come
// from MELISSA_CHAOS_SEED via transport.ChaosSeed so a CI failure replays
// locally). The scenarios mirror the training-side chaos suite: a wedged
// (never-reading) client driving the queue past the shed threshold, a
// slow-drip client that is slow but correct, a half-open link the client
// retry policy must reconnect through, and a graceful drain under load.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/nn"
	"melissa/internal/protocol"
	"melissa/internal/testwait"
	"melissa/internal/transport"

	"math/rand/v2"
)

// chaosSurrogate is testSurrogate with a controllable grid — the wedge
// scenario needs fat responses (gridN² floats) so a non-reading client
// jams its TCP send buffer within a few frames.
func chaosSurrogate(t testing.TB, gridN int, hidden []int, seed uint64) *melissa.Surrogate {
	t.Helper()
	cfg := melissa.DefaultConfig()
	cfg.GridN = gridN
	cfg.StepsPerSim = 6
	cfg.Hidden = hidden
	cfg.Seed = seed
	cfg.Problem = melissa.Heat()
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), seed)
	sur, err := melissa.SurrogateFromNetwork(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sur
}

// TestServeChaosWedgedClient is the overload acceptance scenario: one
// chaos-wedged client (reads stall after the first frame) pipelines a
// burst far past the queue capacity. The server must shed the excess with
// typed overloaded errors, tear down only the wedged connection once it
// stops draining responses, and keep answering well-behaved retrying
// clients with bounded latency and bit-exact fields throughout.
func TestServeChaosWedgedClient(t *testing.T) {
	sur := chaosSurrogate(t, 64, []int{64, 64}, 41) // 16KB responses
	cfg := Config{
		Replicas:     1,
		MaxBatch:     8,
		BatchWait:    200 * time.Microsecond,
		QueueSize:    64,
		OutboxFrames: 32,
		WriteTimeout: 150 * time.Millisecond,
		CacheEntries: 0,
	}
	s := NewServer(sur, cfg)
	addr := startServer(t, s)

	rng := rand.New(rand.NewPCG(transport.ChaosSeed(42), 7))
	params, ts := testQueries(12, rng)
	want := expectedFields(t, sur, cfg.MaxBatch, params, ts)

	// The wedged client: small receive buffer, reads frozen by chaos after
	// one frame, and a pipelined burst of far more requests than QueueSize.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	chaos := transport.NewChaos(transport.ChaosConfig{Seed: transport.ChaosSeed(42), StallReadsAfter: 1})
	wedged := chaos.WrapLabeled("wedged", raw)
	t.Cleanup(func() { wedged.Close() })

	const burstN = 2000
	var burst []byte
	var wreq protocol.PredictRequest
	for i := 0; i < burstN; i++ {
		wreq.ID = uint64(i + 1)
		wreq.T = ts[i%len(ts)]
		wreq.Params = params[i%len(params)]
		burst = protocol.AppendEncode(burst, &wreq)
	}
	go func() {
		wedged.Write(burst)
		io.Copy(io.Discard, wedged) // first read passes, then the stall wedges us
	}()

	// Well-behaved clients predict through the overload with retry.
	const goodClients, perClient = 3, 15
	latencyBound := 5 * time.Second
	var wg sync.WaitGroup
	var slowest atomic.Int64
	for g := 0; g < goodClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.DialPredictOpts(addr, client.PredictOptions{
				DialTimeout:   5 * time.Second,
				CallTimeout:   10 * time.Second,
				RetryAttempts: 10,
				RetryBackoff:  5 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var field []float32
			for i := 0; i < perClient; i++ {
				q := (g*perClient + i) % len(params)
				start := time.Now()
				field, _, err = c.PredictInto(field, params[q], ts[q])
				dur := time.Since(start)
				if err != nil {
					t.Errorf("good client %d request %d failed through overload: %v", g, i, err)
					return
				}
				if dur > latencyBound {
					t.Errorf("good client %d request %d took %v (worker wedged by slow client?)", g, i, dur)
					return
				}
				for {
					old := slowest.Load()
					if int64(dur) <= old || slowest.CompareAndSwap(old, int64(dur)) {
						break
					}
				}
				if !bitsEqual(field, want[q]) {
					t.Errorf("good client %d request %d: torn or wrong field", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The wedged connection must be detected and torn down (outbox overflow
	// or write-deadline expiry).
	testwait.Until(t, "the wedged client to be torn down as slow", func() bool { return s.Stats().SlowClients > 0 })

	st := s.Stats()
	if st.Shed == 0 {
		t.Errorf("stats %+v: burst of %d into a queue of %d shed nothing", st, burstN, cfg.QueueSize)
	}
	if st.SlowClients == 0 {
		t.Errorf("stats %+v: wedged client never torn down as slow", st)
	}
	t.Logf("chaos wedge: shed=%d slowClients=%d responses=%d slowest good call=%v",
		st.Shed, st.SlowClients, st.Responses, time.Duration(slowest.Load()))
}

// TestServeChaosSlowDripClient: a client that drains responses slowly but
// steadily is merely slow — the server must keep serving it bit-exact
// answers and must not count it as a slow-client teardown.
func TestServeChaosSlowDripClient(t *testing.T) {
	sur := testSurrogate(t, 43)
	cfg := Config{Replicas: 1, MaxBatch: 4, WriteTimeout: 2 * time.Second, CacheEntries: 0}
	s := NewServer(sur, cfg)
	addr := startServer(t, s)

	chaos := transport.NewChaos(transport.ChaosConfig{
		Seed:          transport.ChaosSeed(42),
		ReadDelayRate: 1.0,
		ReadDelay:     time.Millisecond,
	})
	c, err := client.DialPredictOpts(addr, client.PredictOptions{
		DialTimeout: 5 * time.Second,
		CallTimeout: 10 * time.Second,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return chaos.WrapLabeled("drip", nc), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewPCG(transport.ChaosSeed(42), 11))
	params, ts := testQueries(8, rng)
	want := expectedFields(t, sur, cfg.MaxBatch, params, ts)
	var field []float32
	for i := 0; i < 32; i++ {
		q := i % len(params)
		field, _, err = c.PredictInto(field, params[q], ts[q])
		if err != nil {
			t.Fatalf("drip request %d: %v", i, err)
		}
		if !bitsEqual(field, want[q]) {
			t.Fatalf("drip request %d: wrong field", i)
		}
	}
	if st := s.Stats(); st.SlowClients != 0 || st.SendErrors != 0 {
		t.Fatalf("stats %+v: slow-but-draining client was torn down", st)
	}
}

// TestServeChaosHalfOpenReconnect: the first connection goes half-open
// (writes blackholed, reads stalled) after its first frame; the client's
// per-call timeout must detect it and the retry policy must redial and
// succeed on a fresh connection.
func TestServeChaosHalfOpenReconnect(t *testing.T) {
	sur := testSurrogate(t, 47)
	s := NewServer(sur, Config{Replicas: 1, MaxBatch: 4, CacheEntries: 0})
	addr := startServer(t, s)

	chaos := transport.NewChaos(transport.ChaosConfig{Seed: transport.ChaosSeed(42), HalfOpenAfterWrites: 1})
	var dials atomic.Int64
	c, err := client.DialPredictOpts(addr, client.PredictOptions{
		DialTimeout:   5 * time.Second,
		CallTimeout:   300 * time.Millisecond,
		RetryAttempts: 4,
		RetryBackoff:  2 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return chaos.WrapLabeled("half-open", nc), nil
			}
			return nc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewPCG(transport.ChaosSeed(42), 13))
	params, ts := testQueries(1, rng)
	want := expectedFields(t, sur, 4, params, ts)
	field, _, err := c.Predict(params[0], ts[0])
	if err != nil {
		t.Fatalf("half-open link not recovered: %v", err)
	}
	if !bitsEqual(field, want[0]) {
		t.Fatal("wrong field after half-open recovery")
	}
	if n := dials.Load(); n < 2 {
		t.Fatalf("expected a reconnect through the half-open link, saw %d dials", n)
	}
}

// TestServeChaosDrainUnderLoad: Drain while retrying clients hammer the
// server. Everything admitted before the drain must be answered and
// flushed (a clean drain, zero torn responses); requests arriving during
// the drain get typed draining/overloaded rejections or a closed
// connection, never a corrupt answer.
func TestServeChaosDrainUnderLoad(t *testing.T) {
	sur := testSurrogate(t, 53)
	cfg := Config{Replicas: 2, MaxBatch: 8, CacheEntries: 0}
	s := NewServer(sur, cfg)
	addr := startServer(t, s)

	rng := rand.New(rand.NewPCG(transport.ChaosSeed(42), 17))
	params, ts := testQueries(16, rng)
	want := expectedFields(t, sur, cfg.MaxBatch, params, ts)

	const clients, perClient = 4, 400
	// Every client is connected before the load starts: the drain closes
	// the listener, and a dial that came after it would be refused.
	conns := make([]*client.PredictConn, clients)
	for g := range conns {
		c, err := client.DialPredictOpts(addr, client.PredictOptions{
			DialTimeout:   5 * time.Second,
			CallTimeout:   5 * time.Second,
			RetryAttempts: 2,
			RetryBackoff:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[g] = c
	}
	var wg sync.WaitGroup
	var successes, rejected atomic.Int64
	for g, c := range conns {
		wg.Add(1)
		go func(g int, c *client.PredictConn) {
			defer wg.Done()
			var field []float32
			var err error
			for i := 0; i < perClient; i++ {
				q := (g + i) % len(params)
				field, _, err = c.PredictInto(field, params[q], ts[q])
				if err != nil {
					if errors.Is(err, client.ErrOverloaded) {
						rejected.Add(1)
					}
					return // drain reached this client
				}
				if !bitsEqual(field, want[q]) {
					t.Errorf("client %d request %d: torn response during drain", g, i)
					return
				}
				successes.Add(1)
			}
		}(g, c)
	}

	// Let the load establish, then drain mid-flight.
	testwait.Until(t, "50 answers before the drain", func() bool { return successes.Load() >= 50 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under load not clean: %v", err)
	}
	wg.Wait()

	st := s.Stats()
	if st.Drain != DrainClean {
		t.Fatalf("stats %+v: drain outcome %d, want clean (%d)", st, st.Drain, DrainClean)
	}
	if successes.Load() < 50 {
		t.Fatalf("only %d successes before drain", successes.Load())
	}
	t.Logf("drain under load: %d answered, %d typed rejections, stats %+v", successes.Load(), rejected.Load(), st)
}

// TestServeDeadlineExpiry covers both deadline rejection points without
// chaos: a request already past its budget at admission, and one whose
// budget elapses while it waits in the queue (swept at batch assembly,
// never computed).
func TestServeDeadlineExpiry(t *testing.T) {
	sur := testSurrogate(t, 41)
	s := NewServer(sur, Config{Replicas: 1, MaxBatch: 4, CacheEntries: 0})
	defer s.Close()

	p1, p2 := net.Pipe()
	defer p2.Close()
	c := s.newConn(p1)
	defer c.shutdown()
	rd := protocol.NewReader(bufio.NewReader(p2))

	rng := rand.New(rand.NewPCG(19, 23))
	params, ts := testQueries(2, rng)

	// Admit-time expiry: the frame's receive timestamp is already older
	// than its budget.
	req := leaseRequest(params[0], ts[0])
	req.DeadlineMs = 5
	s.admit(c, req, time.Now().Add(-50*time.Millisecond))
	msg, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	perr, ok := msg.(protocol.PredictError)
	if !ok || perr.Code != protocol.PredictErrExpired {
		t.Fatalf("admit-time expiry: got %T %+v, want PredictErrExpired", msg, msg)
	}

	// Batch-assembly expiry: the pending's deadline passed while queued.
	req2 := leaseRequest(params[1], ts[1])
	req2.ID = 2
	p := s.leasePending(c, req2, time.Now().Add(-time.Millisecond))
	m := s.model.Load()
	s.serveBatch(m, m.sur.NewReplica(1), []*pending{p}, nil)
	msg, err = rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	perr, ok = msg.(protocol.PredictError)
	if !ok || perr.Code != protocol.PredictErrExpired || perr.ID != 2 {
		t.Fatalf("batch-assembly expiry: got %T %+v, want PredictErrExpired for ID 2", msg, msg)
	}

	st := s.Stats()
	if st.DeadlineExpired != 2 {
		t.Fatalf("stats %+v: %d deadline expiries counted, want 2", st, st.DeadlineExpired)
	}
	if st.Batches != 0 {
		t.Fatalf("stats %+v: an expired request was computed", st)
	}
}
