package ddp

import (
	"fmt"
	"sync"
	"testing"

	"melissa/internal/testlevel"
)

// spawnPeers launches ranks 1..n-1 running iters lockstep collective calls
// each, returning a WaitGroup to join them. The caller drives rank 0.
func spawnPeers(n, iters int, fn func(rank int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(rank)
			}
		}(r)
	}
	return &wg
}

// TestCollectivesZeroAlloc pins the steady-state allocation behaviour of
// the ring collectives on every layout and codec: after the first call
// sizes the socket staging buffers and residual slabs, a collective must
// not allocate. Peer ranks run in pre-spawned
// goroutines so only the collective itself is measured; their allocations
// still count (the runtime counter is global), which is exactly what we
// want.
func TestCollectivesZeroAlloc(t *testing.T) {
	const runs = 100
	const elems = 1 << 12
	// Two buckets of different sizes, issued in the same order by every
	// rank — the shape of a two-layer network's gradient sync.
	buckets := [][2]int{{0, 3000}, {3000, elems}}
	collectives := []struct {
		name string
		call func(c *Comm, rank int, buf []float32)
	}{
		{"AllReduceSum", func(c *Comm, rank int, buf []float32) { c.AllReduceSum(rank, buf) }},
		{"SumFromRoot", func(c *Comm, rank int, buf []float32) { sumFromRoot(c, rank, 0, buf) }},
		{"AllReduceSumRange", func(c *Comm, rank int, buf []float32) {
			for _, bk := range buckets {
				c.AllReduceSumRange(rank, buf, bk[0], bk[1])
			}
		}},
	}
	for _, ly := range layouts {
		for _, codec := range ly.codecs {
			for _, col := range collectives {
				t.Run(fmt.Sprintf("%s/%s/%s", ly.name, codec, col.name), func(t *testing.T) {
					g := ly.group(t, codec)
					n := len(g)
					bufs := make([][]float32, n)
					for r := range bufs {
						bufs[r] = make([]float32, elems)
					}
					// A collective runs no GEMM, so tensor's kernel level cannot
					// matter here; the loop is the cheap proof.
					testlevel.Each(t, func(level string) {
						// AllocsPerRun invokes f runs+1 times (one warm-up round
						// sizes the buffers); the peers must iterate exactly as
						// often to stay in lockstep.
						wg := spawnPeers(n, runs+1, func(rank int) { col.call(g[rank], rank, bufs[rank]) })
						avg := testing.AllocsPerRun(runs, func() { col.call(g[0], 0, bufs[0]) })
						wg.Wait()
						if avg != 0 {
							t.Fatalf("%s: %v allocs per call in steady state, want 0", level, avg)
						}
					})
				})
			}
		}
	}
}

// BenchmarkAllReduceRange measures the bucketed collective sweep a ring
// rank issues per step (two layer buckets over a 64k slab),
// against BenchmarkAllReduce's single full-slab collective.
func BenchmarkAllReduceRange(b *testing.B) {
	const n = 4
	const elems = 1 << 16
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
	}
	buckets := [][2]int{{0, elems / 3}, {elems / 3, elems}}
	syncBuckets := func(rank int) {
		for _, bk := range buckets {
			c.AllReduceSumRange(rank, bufs[rank], bk[0], bk[1])
		}
	}
	wg := spawnPeers(n, b.N+1, syncBuckets)
	syncBuckets(0) // warm-up, off the clock
	b.SetBytes(4 * elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncBuckets(0)
	}
	b.StopTimer()
	wg.Wait()
}

// BenchmarkAllReduce measures the steady-state ring all-reduce across 4
// ranks on a 64k-element buffer (the scale of the paper's surrogate
// gradient slab). Peer ranks run in persistent goroutines, so the timed
// loop contains only collective work — no spawn cost, 0 allocs/op.
func BenchmarkAllReduce(b *testing.B) {
	const n = 4
	const elems = 1 << 16
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
	}
	wg := spawnPeers(n, b.N+1, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
	// One warm-up round, off the clock.
	c.AllReduceSum(0, bufs[0])
	b.SetBytes(4 * elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllReduceSum(0, bufs[0])
	}
	b.StopTimer()
	wg.Wait()
}

// BenchmarkAllReduceStatus measures the trainer's per-step status
// collective in the in-process layout: 3 floats over 2 and 4 ranks, all
// latency — the ranks meet, and the last to arrive sums the slots.
func BenchmarkAllReduceStatus(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			c := NewCommunicator(n)
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = make([]float32, 3)
			}
			wg := spawnPeers(n, b.N+1, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
			c.AllReduceSum(0, bufs[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			wg.Wait()
		})
	}
}
