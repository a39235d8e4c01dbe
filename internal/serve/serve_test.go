package serve

import (
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/protocol"
	"melissa/internal/tensor"
	"melissa/internal/testlevel"
	"melissa/internal/testwait"
)

// testSurrogate builds a small untrained heat surrogate with seeded random
// weights — serving mechanics don't need a training run, only a loadable
// model. Different seeds give models that answer every query differently,
// which is what the reload tests need.
func testSurrogate(t testing.TB, seed uint64) *melissa.Surrogate {
	t.Helper()
	cfg := melissa.DefaultConfig()
	cfg.GridN = 8
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{24, 24}
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

// testQueries draws n in-range float32 heat queries.
func testQueries(n int, rng *rand.Rand) (params [][]float32, ts []float32) {
	min, max := melissa.Heat().ParamBounds()
	params = make([][]float32, n)
	ts = make([]float32, n)
	for i := range params {
		p := make([]float32, len(min))
		for j := range p {
			p[j] = float32(min[j] + rng.Float64()*(max[j]-min[j]))
		}
		params[i] = p
		ts[i] = float32(rng.IntN(6)) + 1
	}
	return params, ts
}

// expectedFields computes the reference answer for each query on a replica
// with the server's batch shape — the bits every served response must match.
func expectedFields(t testing.TB, sur *melissa.Surrogate, maxBatch int, params [][]float32, ts []float32) [][]float32 {
	t.Helper()
	rep := sur.NewReplica(maxBatch)
	out := make([][]float32, len(params))
	for q := range params {
		err := rep.PredictBatchRaw(1,
			func(int) ([]float32, float32) { return params[q], ts[q] },
			func(_ int, field []float32) { out[q] = append([]float32(nil), field...) })
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// startServer serves s on a loopback listener and returns its address.
func startServer(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestServeCloseRacesAccept: Close right after a dial used to let Serve's
// wg.Add for the freshly accepted connection meet a counter that the exiting
// workers had just brought to zero under Close's Wait ("WaitGroup is reused
// before previous Wait has returned"). Serve now holds its own count while
// it accepts. Dial and close in a tight loop; run under -race. Even rounds
// wait until Serve is accepting, so Close races the accepted connection;
// odd rounds do not, so Close may also win against Serve itself (which must
// then give the listener up instead of accepting on a closed server).
func TestServeCloseRacesAccept(t *testing.T) {
	sur := testSurrogate(t, 53)
	for i := 0; i < 300; i++ {
		s := NewServer(sur, Config{MaxBatch: 2, Replicas: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		for i%2 == 0 && s.Addr() == nil {
			runtime.Gosched()
		}
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		nc.Close()
		if err := <-served; err != nil {
			t.Fatalf("round %d: Serve returned %v after Close", i, err)
		}
	}
}

// TestServeCloseUnblocksIdleConns: Close must return even while clients
// hold idle connections open — handler goroutines parked in a socket read
// are unblocked by Close's connection sweep, not by waiting for every
// client to hang up.
func TestServeCloseUnblocksIdleConns(t *testing.T) {
	sur := testSurrogate(t, 47)
	s := NewServer(sur, Config{MaxBatch: 4, Replicas: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	conns := make([]*client.PredictConn, 3)
	for i := range conns {
		c, err := client.DialPredict(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		defer c.Close()
	}
	// One round trip each proves the handlers are up and parked in Next.
	rng := rand.New(rand.NewPCG(11, 13))
	params, ts := testQueries(len(conns), rng)
	for i, c := range conns {
		if _, _, err := c.Predict(params[i], ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on idle client connections")
	}
}

// TestServeEndToEnd: a client's predictions over loopback TCP must be
// bit-identical to the local replica reference, Info must describe the
// model, a query computed twice must hit the cache from then on, and
// malformed queries must be rejected without killing the connection.
func TestServeEndToEnd(t *testing.T) {
	sur := testSurrogate(t, 41)
	cfg := Config{MaxBatch: 8, Replicas: 2, CacheEntries: 64}
	s := NewServer(sur, cfg)
	addr := startServer(t, s)

	c, err := client.DialPredict(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Problem != melissa.HeatName || int(info.ParamDim) != sur.ParamDim() ||
		int(info.OutputDim) != sur.OutputDim() || info.Epoch != 1 {
		t.Fatalf("bad server info %+v", info)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	params, ts := testQueries(16, rng)
	want := expectedFields(t, sur, cfg.MaxBatch, params, ts)
	var field []float32
	// Round 0 asks each query twice in a row: the first computation is
	// declined, the second stored. Round 1 must be all cache hits.
	for round, repeat := range []int{2, 1} {
		for i := 0; i < repeat*len(params); i++ {
			q := i / repeat
			var epoch uint32
			field, epoch, err = c.PredictInto(field, params[q], ts[q])
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, q, err)
			}
			if epoch != 1 {
				t.Fatalf("round %d query %d: epoch %d, want 1", round, q, epoch)
			}
			if !bitsEqual(field, want[q]) {
				t.Fatalf("round %d query %d: served field diverges from reference", round, q)
			}
		}
	}
	if st := s.Stats(); st.Hits != uint64(len(params)) || st.CacheDeclined != uint64(len(params)) {
		t.Fatalf("stats %+v: want %d cache hits and %d declined", st, len(params), len(params))
	}

	// Wrong parameter count → PredictError, connection stays usable.
	if _, _, err := c.Predict([]float32{1, 2}, 1); err == nil {
		t.Fatal("malformed query accepted")
	}
	if _, _, err = c.Predict(params[0], ts[0]); err != nil {
		t.Fatalf("connection unusable after rejection: %v", err)
	}
	if st := s.Stats(); st.Errors == 0 {
		t.Fatalf("stats %+v: rejection not counted", st)
	}
}

// holdWorker parks a lone batch worker inside a batch: it admits one query
// on a connection whose response lock the test holds, so the worker blocks
// answering it and every request admitted meanwhile queues up. The returned
// release lets the worker go on.
func holdWorker(t testing.TB, s *Server, params []float32, ts float32) (release func()) {
	t.Helper()
	c := s.newConn(nopConn{})
	c.mu.Lock()
	s.admit(c, leaseRequest(params, ts), time.Now())
	var once sync.Once
	release = func() {
		once.Do(func() {
			c.mu.Unlock()
			c.shutdown()
		})
	}
	t.Cleanup(release)
	return release
}

// TestServeSameBytesAtEveryKernelLevel: a model trained and published where
// the GEMM runs its widest kernels answers byte for byte the same from a
// server pinned to each narrower level (and to the widest). Trained — a
// few Adam steps — so the weights are not the initializer's round numbers;
// the lone worker is held while eight callers queue a request each, so the
// forwards are fused batches of several rows and the multi-row kernels run,
// checked on the batch counters.
func TestServeSameBytesAtEveryKernelLevel(t *testing.T) {
	cfg := melissa.DefaultConfig()
	cfg.GridN = 8
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{24, 24}
	cfg.Problem = melissa.Heat()
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), 47)
	rng := rand.New(rand.NewPCG(9, 10))
	in, out := tensor.New(10, norm.InputDim()), tensor.New(10, norm.OutputDim())
	loss, adam := nn.NewMSELoss(), opt.NewAdam(1e-2)
	for step := 0; step < 20; step++ {
		for i := range in.Data {
			in.Data[i] = rng.Float32()
		}
		for i := range out.Data {
			out.Data[i] = rng.Float32()
		}
		net.ZeroGrad()
		pred := net.Forward(in)
		net.Backward(loss.Backward(pred, out))
		adam.StepFlat(net.FlatParams(), net.FlatGrads())
	}
	sur, err := melissa.SurrogateFromNetwork(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.mlsg")
	if err := melissa.PublishSurrogate(sur, path); err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 40
	params, ts := testQueries(clients*each, rng)
	want := expectedFields(t, sur, 16, params, ts) // at the level the machine selected

	testlevel.Each(t, func(level string) {
		loaded, err := melissa.LoadSurrogateFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(loaded, Config{MaxBatch: 16, Replicas: 1})
		addr := startServer(t, s)
		conns := make([]*client.PredictConn, clients)
		for g := range conns {
			if conns[g], err = client.DialPredict(addr, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			defer conns[g].Close()
		}
		release := holdWorker(t, s, params[0], ts[0])
		var wg sync.WaitGroup
		for g, c := range conns {
			wg.Add(1)
			go func(g int, c *client.PredictConn) {
				defer wg.Done()
				var field []float32
				var err error
				for q := g * each; q < (g+1)*each; q++ {
					if field, _, err = c.PredictInto(field, params[q], ts[q]); err != nil {
						t.Errorf("%s: query %d: %v", level, q, err)
						return
					}
					if !bitsEqual(field, want[q]) {
						t.Errorf("%s: query %d: served field differs from the publisher's", level, q)
						return
					}
				}
			}(g, c)
		}
		testwait.Until(t, "every caller's first request to be admitted", func() bool { return s.inflight.Load() == 1+clients })
		release()
		wg.Wait()
		// The worker counts a batch after it has answered it.
		testwait.Until(t, "the last batch to be counted", func() bool { return s.Stats().BatchRows == 1+clients*each })
		if st := s.Stats(); st.Batches >= st.BatchRows {
			t.Fatalf("%s: stats %+v: no fused batch, the multi-row kernels did not run", level, st)
		}
		s.Close()
	})
}

// TestServeBatchesCoalesce: requests admitted while the lone worker is busy
// must be micro-batched — once it is free, it takes every queued request
// into one fused forward pass.
func TestServeBatchesCoalesce(t *testing.T) {
	sur := testSurrogate(t, 43)
	s := NewServer(sur, Config{MaxBatch: 16, Replicas: 1})
	t.Cleanup(func() { s.Close() }) // after holdWorker's release, which a Cleanup also runs
	const n = 8
	params, ts := testQueries(n, rand.New(rand.NewPCG(5, 6)))
	release := holdWorker(t, s, params[0], ts[0])
	c := s.newConn(nopConn{})
	defer c.shutdown()
	for i := range params {
		s.admit(c, leaseRequest(params[i], ts[i]), time.Now())
	}
	release()
	testwait.Until(t, "every request to be answered", func() bool { return s.Stats().BatchRows == 1+n })
	// The held batch holds the held request and whichever others the worker
	// drained before it blocked; the next takes the rest.
	if st := s.Stats(); st.Batches > 2 {
		t.Fatalf("stats %+v: no coalescing (%d rows in %d batches)", st, st.BatchRows, st.Batches)
	}
}

// TestServeLoneRequestDoesNotWait: a request that is the only one admitted
// runs at once, however long BatchWait is — each of these sequential calls
// is answered within the client's call timeout, not after an hour.
func TestServeLoneRequestDoesNotWait(t *testing.T) {
	sur := testSurrogate(t, 43)
	s := NewServer(sur, Config{MaxBatch: 16, Replicas: 1, BatchWait: time.Hour})
	c, err := client.DialPredictOpts(startServer(t, s), client.PredictOptions{
		DialTimeout: 5 * time.Second,
		CallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	params, ts := testQueries(3, rand.New(rand.NewPCG(7, 8)))
	for q := range params {
		if _, _, err := c.Predict(params[q], ts[q]); err != nil {
			t.Fatalf("lone request %d: %v", q, err)
		}
	}
}

// TestServeReloadUnderLoad is the hot-reload torture test (run under
// -race): clients hammer the server while the checkpoint is repeatedly
// hot-swapped between two models. Every request must get exactly one
// response, and every response must be bit-identical to the answer of the
// single epoch it claims — old bits or new bits, never a torn mix — with
// the epoch's parity identifying which checkpoint produced it.
func TestServeReloadUnderLoad(t *testing.T) {
	surA := testSurrogate(t, 41) // epochs 1, 3, 5, ... (odd)
	surB := testSurrogate(t, 97) // epochs 2, 4, 6, ... (even)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mlsg")
	pathB := filepath.Join(dir, "b.mlsg")
	if err := melissa.PublishSurrogate(surA, pathA); err != nil {
		t.Fatal(err)
	}
	if err := melissa.PublishSurrogate(surB, pathB); err != nil {
		t.Fatal(err)
	}

	cfg := Config{MaxBatch: 8, Replicas: 2, BatchWait: 200 * time.Microsecond, CacheEntries: 32}
	s := NewServer(surA, cfg)
	addr := startServer(t, s)

	rng := rand.New(rand.NewPCG(11, 13))
	params, ts := testQueries(24, rng)
	wantA := expectedFields(t, surA, cfg.MaxBatch, params, ts)
	wantB := expectedFields(t, surB, cfg.MaxBatch, params, ts)

	const clients, each = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.DialPredict(addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var field []float32
			for i := 0; i < each; i++ {
				q := (g*each + i) % len(params)
				var epoch uint32
				field, epoch, err = c.PredictInto(field, params[q], ts[q])
				if err != nil {
					t.Errorf("client %d request %d dropped: %v", g, i, err)
					return
				}
				want := wantA[q]
				if epoch%2 == 0 {
					want = wantB[q]
				}
				if !bitsEqual(field, want) {
					t.Errorf("client %d request %d: response torn or stale (epoch %d)", g, i, epoch)
					return
				}
			}
		}(g)
	}

	// Flip checkpoints as fast as the loader allows while the load runs.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for i := 0; ; i++ {
			path := pathB
			if i%2 == 1 {
				path = pathA
			}
			if _, err := s.Reload(path); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-s.done:
				return
			}
			if i > 0 && allDone(&wg) {
				return
			}
		}
	}()

	wg.Wait()
	<-reloadDone
	// A response is counted after it is written: the last client can have
	// its answer before the writer has counted it.
	testwait.Until(t, "every response to be counted", func() bool { return s.Stats().Responses == clients*each })
	st := s.Stats()
	if st.Reloads < 2 {
		t.Fatalf("stats %+v: only %d reloads happened during the run", st, st.Reloads)
	}
}

// allDone reports whether wg's count reached zero without blocking.
func allDone(wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(time.Millisecond):
		return false
	}
}

// TestServeWatcherPicksUpPublish: a checkpoint atomically published over
// the watched path must be hot-loaded without any admin traffic.
func TestServeWatcherPicksUpPublish(t *testing.T) {
	surA := testSurrogate(t, 41)
	surB := testSurrogate(t, 97)
	dir := t.TempDir()
	path := filepath.Join(dir, "surrogate.mlsg")
	if err := melissa.PublishSurrogate(surA, path); err != nil {
		t.Fatal(err)
	}
	s := NewServer(surA, Config{CheckpointPath: path, WatchInterval: 5 * time.Millisecond})
	defer s.Close()
	if err := melissa.PublishSurrogate(surB, path); err != nil {
		t.Fatal(err)
	}
	testwait.Until(t, "the watcher to reload the published checkpoint", func() bool { return s.Epoch() == 2 })
}

// TestServeReloadRejectsIncompatible: a checkpoint with different
// dimensions must be refused, leaving the old model serving.
func TestServeReloadRejectsIncompatible(t *testing.T) {
	sur := testSurrogate(t, 41)
	cfg := melissa.DefaultConfig()
	cfg.GridN = 4 // different output dim
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{8}
	cfg.Seed = 3
	cfg.Problem = melissa.Heat()
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	small, err := melissa.SurrogateFromNetwork(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.mlsg")
	if err := melissa.PublishSurrogate(small, path); err != nil {
		t.Fatal(err)
	}
	s := NewServer(sur, Config{})
	defer s.Close()
	if _, err := s.Reload(path); err == nil {
		t.Fatal("incompatible checkpoint accepted")
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch advanced to %d on failed reload", s.Epoch())
	}
}

// nopConn is a net.Conn that discards writes — the alloc gates below need
// the full response encode+enqueue+write path without a real socket.
type nopConn struct{ net.Conn }

func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// flushConn spins until c's writer goroutine has drained the outbox, so
// every encode buffer is back on the freelist before the next measured run.
func flushConn(c *conn) {
	for c.queued.Load() != 0 {
		runtime.Gosched()
	}
}

// TestServeSteadyStateZeroAlloc gates the steady-state request paths at
// zero heap allocations per request once buffers and pools are warm: the
// compute path (admit → batch → fused forward → encode) with the cache
// disabled, the same path with the cache on and every query new (lookup
// miss, declined insert), and the cache-hit path (admit → lookup → encode).
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	sur := testSurrogate(t, 41)
	rng := rand.New(rand.NewPCG(17, 19))
	params, ts := testQueries(8, rng)

	t.Run("compute", func(t *testing.T) {
		s := NewServer(sur, Config{MaxBatch: 8, Replicas: 1, CacheEntries: 0})
		defer s.Close()
		c := s.newConn(nopConn{})
		defer c.shutdown()
		m := s.model.Load()
		rep := m.sur.NewReplica(s.cfg.MaxBatch) // the worker's own replica
		batch := make([]*pending, len(params))
		var key []byte // worker-private key scratch, as in the worker loop
		run := func() {
			// Build the batch the way admit would, then serve it on this
			// goroutine — the worker loop is just these two calls.
			for i := range batch {
				req := leaseRequest(params[i], ts[i])
				batch[i] = s.leasePending(c, req, time.Time{})
			}
			key = s.serveBatch(m, rep, batch, key)
			flushConn(c)
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("compute path allocates %.2f allocs per batch, want 0", avg)
		}
	})

	t.Run("cache-miss", func(t *testing.T) {
		s := NewServer(sur, Config{MaxBatch: 8, Replicas: 1, CacheEntries: 64})
		defer s.Close()
		c := s.newConn(nopConn{})
		defer c.shutdown()
		m := s.model.Load()
		rep := m.sur.NewReplica(s.cfg.MaxBatch)
		batch := make([]*pending, len(params))
		var key []byte
		tick := float32(0)
		run := func() {
			tick++ // a new t every run: every query is a first sighting
			for i := range batch {
				c.keyBuf = appendKey(c.keyBuf[:0], params[i], tick)
				if f, _ := s.cache.get(c.keyBuf, c.fieldBuf); f != nil {
					t.Fatal("a new query hit the cache")
				}
				batch[i] = s.leasePending(c, leaseRequest(params[i], tick), time.Time{})
			}
			key = s.serveBatch(m, rep, batch, key)
			flushConn(c)
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("cache-miss path allocates %.2f allocs per batch, want 0", avg)
		}
		if n := s.cache.counters(); n.declined == 0 || s.cache.len() != 0 {
			t.Fatalf("gate did not stay on the miss path: %d declined, %d stored", n.declined, s.cache.len())
		}
	})

	t.Run("cache-hit", func(t *testing.T) {
		s := NewServer(sur, Config{MaxBatch: 8, Replicas: 1, CacheEntries: 64})
		defer s.Close()
		c := s.newConn(nopConn{})
		defer c.shutdown()
		m := s.model.Load()
		// Warm the cache through the real compute path: each query twice in
		// one batch, so its second computation stores it.
		rep := m.sur.NewReplica(s.cfg.MaxBatch)
		for i := range params {
			batch := []*pending{
				s.leasePending(c, leaseRequest(params[i], ts[i]), time.Time{}),
				s.leasePending(c, leaseRequest(params[i], ts[i]), time.Time{}),
			}
			s.serveBatch(m, rep, batch, nil)
		}
		flushConn(c)
		hit := func() {
			for i := range params {
				req := leaseRequest(params[i], ts[i])
				s.admit(c, req, time.Now()) // all hits: answered inline, nothing queued
			}
			flushConn(c)
		}
		for i := 0; i < 4; i++ {
			hit()
		}
		if avg := testing.AllocsPerRun(100, hit); avg != 0 {
			t.Errorf("cache-hit path allocates %.2f allocs per %d requests, want 0", avg, len(params))
		}
		if n := s.cache.counters(); n.misses != 0 || n.hits == 0 {
			t.Fatalf("gate did not stay on the hit path: %d hits, %d misses", n.hits, n.misses)
		}
	})
}

// leaseRequest builds a leased PredictRequest the way the wire reader does.
func leaseRequest(params []float32, t float32) *protocol.PredictRequest {
	req := protocol.LeasePredictRequest()
	req.ID = 1
	req.T = t
	req.Params = append(req.Params[:0], params...)
	return req
}

// TestServeCacheFlushOnReload: after a reload, previously cached answers
// must be recomputed by the new model, not served stale.
func TestServeCacheFlushOnReload(t *testing.T) {
	surA := testSurrogate(t, 41)
	surB := testSurrogate(t, 97)
	path := filepath.Join(t.TempDir(), "b.mlsg")
	if err := melissa.PublishSurrogate(surB, path); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxBatch: 4, Replicas: 1, CacheEntries: 16, CheckpointPath: path}
	s := NewServer(surA, cfg)
	addr := startServer(t, s)
	c, err := client.DialPredict(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewPCG(23, 29))
	params, ts := testQueries(4, rng)
	wantB := expectedFields(t, surB, cfg.MaxBatch, params, ts)
	for q := range params { // populate the cache with epoch-1 answers
		if _, _, err := c.Predict(params[q], ts[q]); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := c.Reload(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("reload returned epoch %d, want 2", epoch)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after reload, want 0", n)
	}
	for q := range params {
		field, epoch, err := c.Predict(params[q], ts[q])
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 2 || !bitsEqual(field, wantB[q]) {
			t.Fatalf("query %d after reload: stale answer (epoch %d)", q, epoch)
		}
	}
}

// TestServeWireReloadConfined: a Reload frame reaches only the configured
// checkpoint or a file beside it. A path anywhere else is refused with the
// same answer whether or not a loadable checkpoint is there — nothing is
// opened, nothing about the filesystem comes back — while the Go method
// still takes any path.
func TestServeWireReloadConfined(t *testing.T) {
	sur := testSurrogate(t, 41)
	dir, elsewhere := t.TempDir(), t.TempDir()
	ckpt := filepath.Join(dir, "model.mlsg")
	beside := filepath.Join(dir, "candidate.mlsg")
	outside := filepath.Join(elsewhere, "model.mlsg")
	for _, path := range []string{ckpt, beside, outside} {
		if err := melissa.PublishSurrogate(testSurrogate(t, 97), path); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(sur, Config{CheckpointPath: ckpt})
	c, err := client.DialPredict(startServer(t, s), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	refused := map[string]string{}
	for name, path := range map[string]string{
		"loadable checkpoint elsewhere": outside,
		"missing file elsewhere":        filepath.Join(elsewhere, "absent.mlsg"),
		"escape through the directory":  filepath.Join(dir, "..", filepath.Base(elsewhere), "model.mlsg"),
		"subdirectory":                  filepath.Join(dir, "sub", "model.mlsg"),
		"system file":                   "/etc/passwd",
	} {
		epoch, err := c.Reload(path)
		if err == nil || epoch != 1 || s.Epoch() != 1 {
			t.Fatalf("%s: wire reload of %s returned epoch %d, err %v; the server is at epoch %d", name, path, epoch, err, s.Epoch())
		}
		refused[err.Error()] = name
	}
	if len(refused) != 1 {
		t.Fatalf("refusals differ by what is at the path: %v", refused)
	}
	if st := s.Stats(); st.Reloads != 0 {
		t.Fatalf("%d reloads happened through refused frames", st.Reloads)
	}

	for i, path := range []string{"", ckpt, beside, filepath.Join(dir, ".", "sub", "..", "candidate.mlsg")} {
		if epoch, err := c.Reload(path); err != nil || int(epoch) != i+2 {
			t.Fatalf("wire reload of %q: epoch %d, err %v, want epoch %d", path, epoch, err, i+2)
		}
	}
	if epoch, err := s.Reload(outside); err != nil || epoch != 6 {
		t.Fatalf("Server.Reload(%s): epoch %d, err %v; the method is not confined", outside, epoch, err)
	}

	// Without a configured checkpoint there is no directory to confine to:
	// the wire can name nothing.
	bare := NewServer(sur, Config{})
	cb, err := client.DialPredict(startServer(t, bare), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if _, err := cb.Reload(outside); err == nil || bare.Epoch() != 1 {
		t.Fatalf("a server with no checkpoint path took a wire reload: err %v, epoch %d", err, bare.Epoch())
	}
}

// TestPredictRemote covers the one-shot convenience wrapper.
func TestPredictRemote(t *testing.T) {
	sur := testSurrogate(t, 41)
	s := NewServer(sur, Config{})
	addr := startServer(t, s)
	rng := rand.New(rand.NewPCG(31, 37))
	params, ts := testQueries(1, rng)
	field, err := client.PredictRemote(addr, params[0], ts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(field) != sur.OutputDim() {
		t.Fatalf("field length %d, want %d", len(field), sur.OutputDim())
	}
	var nonzero bool
	for _, v := range field {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all-zero prediction")
	}
}

// NewServer wraps a loaded surrogate in a serving instance and starts its
// batch workers (and the checkpoint watcher, if configured). The watcher
// takes the file at CheckpointPath now as the one sur was loaded from, so a
// publish that lands after NewServer returns is always picked up.
func NewServer(sur *melissa.Surrogate, cfg Config) *Server {
	fi, _ := os.Stat(cfg.CheckpointPath)
	return newServer(sur, cfg, fi)
}

// Addr returns the listener address, once Serve has one.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (c *predictCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
