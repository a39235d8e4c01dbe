package ddp

// Tests for the hierarchical communicator: correctness across process/
// local-rank shapes, bit-identity with the flat ring backends (the property
// server.Config relies on when -ranks changes the physical topology
// without changing the training trajectory), and the leader-hop benchmark.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"melissa/internal/testwait"
	"melissa/internal/transport"
)

// newHierGroup wires procs HierComm endpoints over a loopback ring, each
// hosting local consecutive global ranks, and expands them into the
// per-rank commGroup shape the shared helpers expect.
func newHierGroup(tb testing.TB, procs, local int) commGroup {
	return newHierGroupCodec(tb, procs, local, transport.CodecF32)
}

// newHierGroupCodec is newHierGroup with an explicit wire codec for the
// inter-process ring (in-process sums are always exact).
func newHierGroupCodec(tb testing.TB, procs, local int, codec transport.Codec) commGroup {
	tb.Helper()
	listeners := make([]*transport.RingListener, procs)
	addrs := make([]string, procs)
	for p := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[p] = l
		addrs[p] = l.Addr()
	}
	comms := make([]*HierComm, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := range comms {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			ring, err := listeners[proc].ConnectContext(tb.Context(), proc, addrs, 10*time.Second,
				transport.RingOptions{Identity: GroupIdentity(local), Codec: codec})
			if err != nil {
				errs[proc] = err
				return
			}
			comms[proc] = NewHierComm(ring, local)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	g := make(commGroup, procs*local)
	for p, c := range comms {
		for l := 0; l < local; l++ {
			g[p*local+l] = c
		}
	}
	return g
}

// TestHierCollectives runs the core collective checks across process ×
// local-rank shapes, including the degenerate single-process ring (where
// no float leaves the process).
func TestHierCollectives(t *testing.T) {
	for _, shape := range []struct{ procs, local int }{
		{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 2}, {4, 2},
	} {
		t.Run(fmt.Sprintf("procs=%d/local=%d", shape.procs, shape.local), func(t *testing.T) {
			g := newHierGroup(t, shape.procs, shape.local)
			n := shape.procs * shape.local

			// Length 7 exercises uneven (and, for n>7, empty) chunks.
			bufs, want := fillRankBufs(n, 7, 42)
			runGroup(g, func(rank int, c *Comm) { c.AllReduceSum(rank, bufs[rank]) })
			for r := 0; r < n; r++ {
				for i := range want {
					if bufs[r][i] != bufs[0][i] {
						t.Fatalf("rank %d differs from rank 0 at %d", r, i)
					}
					if d := float64(bufs[0][i]) - want[i]; d > 1e-4 || d < -1e-4 {
						t.Fatalf("elem %d: got %v, want %v", i, bufs[0][i], want[i])
					}
				}
			}

			// Each endpoint serves its process's contiguous span.
			for p := 0; p < shape.procs; p++ {
				h := g[p*shape.local]
				if h.RankOffset() != p*shape.local || h.LocalRanks() != shape.local {
					t.Fatalf("proc %d span [%d,+%d), want [%d,+%d)",
						p, h.RankOffset(), h.LocalRanks(), p*shape.local, shape.local)
				}
			}
		})
	}
}

// TestHierBitIdenticalToFlat pins the property the unified server runtime
// is built on: a hierarchical group computes exactly the same floats as the
// in-process layout AND the flat one-rank-per-process TCP ring of the same
// total size, for every procs × local shape. Changing how ranks are packed
// into processes must never perturb a training trajectory.
func TestHierBitIdenticalToFlat(t *testing.T) {
	const length = 1000
	for _, procs := range []int{2, 4} {
		for _, local := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d/local=%d", procs, local), func(t *testing.T) {
				n := procs * local
				hierBufs, _ := fillRankBufs(n, length, 7)
				chanBufs, _ := fillRankBufs(n, length, 7)
				tcpBufs, _ := fillRankBufs(n, length, 7)

				hierGroup := newHierGroup(t, procs, local)
				chanGroup := backendFactories["chan"](t, n)
				tcpGroup := newTCPGroup(t, n)
				runGroup(hierGroup, func(rank int, c *Comm) { scaledMean(c, rank, hierBufs[rank]) })
				runGroup(chanGroup, func(rank int, c *Comm) { scaledMean(c, rank, chanBufs[rank]) })
				runGroup(tcpGroup, func(rank int, c *Comm) { scaledMean(c, rank, tcpBufs[rank]) })
				for r := 0; r < n; r++ {
					for i := 0; i < length; i++ {
						if hierBufs[r][i] != chanBufs[r][i] {
							t.Fatalf("rank %d elem %d: hier %v vs chan %v", r, i, hierBufs[r][i], chanBufs[r][i])
						}
						if hierBufs[r][i] != tcpBufs[r][i] {
							t.Fatalf("rank %d elem %d: hier %v vs tcp %v", r, i, hierBufs[r][i], tcpBufs[r][i])
						}
					}
				}
			})
		}
	}
}

// TestHierWireBytesPerCollective pins what one 1,000-float collective on
// two processes of two ranks sends over a process's socket. The flat ring's
// schedule sent 6 frames a collective, 6,030 B in f32 and 3,030 B in f16;
// those are the bounds. Skipping the all-gather's last step, which would
// bring a process a chunk it finished itself, leaves 5 frames.
func TestHierWireBytesPerCollective(t *testing.T) {
	const length, rounds = 1000, 10
	for _, tc := range []struct {
		codec      transport.Codec
		want, most uint64
	}{
		{transport.CodecF32, 5 * (5 + 4*length/4), 6030},
		{transport.CodecF16, 5 * (5 + 2*length/4), 3030},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			g := newHierGroupCodec(t, 2, 2, tc.codec)
			bufs, _ := fillRankBufs(len(g), length, 5)
			// sent counts only once the writer has written, so wait until the
			// successor has read every byte process 0 sent.
			settled := func() uint64 {
				var sent uint64
				testwait.Until(t, "process 0's sends to reach process 1", func() bool {
					var recv uint64
					sent, _ = g[0].WireBytes()
					_, recv = g[2].WireBytes()
					return sent == recv
				})
				return sent
			}
			before := settled()
			for range rounds {
				runGroup(g, func(rank int, c *Comm) { c.AllReduceSum(rank, bufs[rank]) })
			}
			per := (settled() - before) / rounds
			if per > tc.most {
				t.Fatalf("%d B sent per collective, more than the flat schedule's %d", per, tc.most)
			}
			if per != tc.want {
				t.Fatalf("%d B sent per collective, want %d (5 frames of a 250-float chunk)", per, tc.want)
			}
		})
	}
}

// TestHierCommShapes checks NewHierComm, the one constructor behind
// every multi-process topology: each process's span lands at ring-rank ×
// localRanks, and the group is ring-size × localRanks wide.
func TestHierCommShapes(t *testing.T) {
	l0, err := transport.ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := transport.ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr(), l1.Addr()}
	rings := make([]*transport.Ring, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p, l := range []*transport.RingListener{l0, l1} {
		wg.Add(1)
		go func(proc int, l *transport.RingListener) {
			defer wg.Done()
			rings[proc], errs[proc] = l.ConnectContext(t.Context(), proc, addrs, 10*time.Second, transport.RingOptions{})
		}(p, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer rings[0].Close()
	defer rings[1].Close()

	for _, tc := range []struct {
		proc, local, offset, size int
	}{
		{0, 1, 0, 2}, // flat: one rank per process
		{1, 3, 3, 6}, // hierarchical: three per process
	} {
		c := NewHierComm(rings[tc.proc], tc.local)
		if c.RankOffset() != tc.offset || c.LocalRanks() != tc.local || c.Size() != tc.size {
			t.Fatalf("proc %d with %d local ranks: offset %d, local %d, size %d; want %d, %d, %d",
				tc.proc, tc.local, c.RankOffset(), c.LocalRanks(), c.Size(), tc.offset, tc.local, tc.size)
		}
	}
}

// BenchmarkAllReduceHier measures the hierarchical all-reduce on the same
// 64k-element buffer as BenchmarkAllReduce (in-process) and
// BenchmarkAllReduceTCP (flat 4-rank loopback ring), under each wire codec.
// procs=4/local=1 is the flat-equivalent shape (no regression expected vs
// TCP); procs=2/local=2 has the same total rank count with half the network
// hops per step.
func BenchmarkAllReduceHier(b *testing.B) {
	const elems = 1 << 16
	for _, shape := range []struct {
		procs, local int
		codec        transport.Codec
	}{
		{4, 1, transport.CodecF32}, {2, 2, transport.CodecF32}, {2, 4, transport.CodecF32},
		{4, 1, transport.CodecF16}, {2, 2, transport.CodecF16},
	} {
		b.Run(fmt.Sprintf("procs=%d/local=%d/%s", shape.procs, shape.local, shape.codec), func(b *testing.B) {
			n := shape.procs * shape.local
			g := newHierGroupCodec(b, shape.procs, shape.local, shape.codec)
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = make([]float32, elems)
			}
			var wg sync.WaitGroup
			for r := 1; r < n; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					for i := 0; i < b.N+1; i++ {
						g[rank].AllReduceSum(rank, bufs[rank])
					}
				}(r)
			}
			g[0].AllReduceSum(0, bufs[0]) // warm the recycled buffers
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[0].AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			wg.Wait()
		})
	}
}
