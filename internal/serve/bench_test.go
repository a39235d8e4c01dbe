package serve

// Closed-loop load benchmark for the serving tier: C client connections
// each issue sequential predict requests over loopback TCP, so offered
// load rises with concurrency until the batch workers saturate. Each
// variant reports achieved throughput (qps) plus p50/p99 request latency,
// giving the latency-vs-QPS curve for 1→N replicas and micro-batched vs
// unbatched dispatch. History in bench/README.md keeps the PR 7 numbers;
// CI runs a -benchtime=1x smoke of every variant.

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/nn"
)

// benchQueryPool is sized so closed-loop clients cycling through it keep
// the prediction cache cold (pool ≫ cache) unless a variant wants hits.
const benchQueryPool = 512

// benchSurrogate is bigger than the unit-test model (grid 16 → 256-float
// fields, 64×64 hidden): each 1-row forward streams the full ~84 KB weight
// slab, so the benchmark exposes what micro-batching actually buys —
// amortizing that weight traffic across the fused batch.
func benchSurrogate(b *testing.B) *melissa.Surrogate {
	b.Helper()
	cfg := melissa.DefaultConfig()
	cfg.GridN = 16
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{64, 64}
	cfg.Seed = 7
	cfg.Problem = melissa.Heat()
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	sur, err := melissa.SurrogateFromNetwork(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sur
}

type serveBenchVariant struct {
	name     string
	cfg      Config
	conc     int  // concurrent closed-loop client connections
	cacheHit bool // replay one query so every request after the first hits the cache
}

func BenchmarkServe(b *testing.B) {
	variants := []serveBenchVariant{
		// Latency floor: a single closed-loop client never coalesces, so
		// this is the per-request cost with zero queueing.
		{name: "batched/replicas=1/conc=1",
			cfg: Config{MaxBatch: 32, BatchWait: 200 * time.Microsecond, Replicas: 1}, conc: 1},
		// Saturation: 32 clients against one replica — one request per
		// forward pass vs up to 32 coalesced into one fused GEMM.
		{name: "unbatched/replicas=1/conc=32",
			cfg: Config{MaxBatch: 1, Replicas: 1}, conc: 32},
		{name: "batched/replicas=1/conc=32",
			cfg: Config{MaxBatch: 32, BatchWait: 200 * time.Microsecond, Replicas: 1}, conc: 32},
		// Horizontal scaling: the same saturating load over a 4-replica
		// pool. MaxBatch is sized to the per-worker share of the closed
		// loop (32 clients / 4 workers): every forward always runs at the
		// fixed MaxBatch shape (the determinism contract), so oversizing
		// it would pay for rows the fragmented stream never fills.
		{name: "unbatched/replicas=4/conc=32",
			cfg: Config{MaxBatch: 1, Replicas: 4}, conc: 32},
		{name: "batched/replicas=4/conc=32",
			cfg: Config{MaxBatch: 8, BatchWait: 200 * time.Microsecond, Replicas: 4}, conc: 32},
		// Cache ceiling: all hits after warm-up, no forward pass at all.
		{name: "cachehit/conc=32",
			cfg:  Config{MaxBatch: 32, BatchWait: 200 * time.Microsecond, Replicas: 1, CacheEntries: 64},
			conc: 32, cacheHit: true},
	}
	sur := benchSurrogate(b)
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) { benchServe(b, sur, v) })
	}
}

func benchServe(b *testing.B, sur *melissa.Surrogate, v serveBenchVariant) {
	s := NewServer(sur, v.cfg)
	addr := startServer(b, s)

	params, ts := testQueries(benchQueryPool, rand.New(rand.NewPCG(11, 13)))
	if v.cacheHit {
		for i := range params {
			params[i], ts[i] = params[0], ts[0]
		}
	}

	conns := make([]*client.PredictConn, v.conc)
	for i := range conns {
		c, err := client.DialPredict(addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	// Warm every connection (and the cache-hit variant's cache entry) off
	// the clock.
	var field []float32
	for _, c := range conns {
		var err error
		if field, _, err = c.PredictInto(field, params[0], ts[0]); err != nil {
			b.Fatal(err)
		}
	}

	// Closed loop: b.N requests split across the connections, each client
	// timing every request. Per-client latency slices are preallocated so
	// measurement itself stays off the allocator.
	per := b.N / v.conc
	if per == 0 {
		per = 1
	}
	lats := make([][]time.Duration, v.conc)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		lats[i] = make([]time.Duration, per)
		go func(i int, c *client.PredictConn) {
			defer wg.Done()
			var field []float32
			for r := 0; r < per; r++ {
				q := (i*per + r) % benchQueryPool
				t0 := time.Now()
				var err error
				if field, _, err = c.PredictInto(field, params[q], ts[q]); err != nil {
					b.Error(err)
					return
				}
				lats[i][r] = time.Since(t0)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	all := make([]time.Duration, 0, v.conc*per)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(all)-1))
		return float64(all[idx].Nanoseconds()) / 1e3
	}
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "qps")
	b.ReportMetric(pct(0.50), "p50-µs")
	b.ReportMetric(pct(0.99), "p99-µs")
	b.ReportMetric(0, "ns/op") // latency percentiles are the meaningful axis
}
