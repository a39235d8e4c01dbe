package ddp

// The layout-parametrized collective suite: every layout of the one
// ring communicator must pass identical correctness checks, produce
// bit-identical results (same chunking, same reduction order) and fail the
// same way when poisoned.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"melissa/internal/testwait"
	"melissa/internal/transport"
)

// commGroup is n per-rank communicator handles: the in-process backend
// ("chan") shares one object across ranks, the TCP backend builds one ring endpoint per
// rank over loopback.
type commGroup []*Comm

// backendFactories builds each backend's n-rank group.
var backendFactories = map[string]func(tb testing.TB, n int) commGroup{
	"chan": func(tb testing.TB, n int) commGroup {
		c := NewCommunicator(n)
		g := make(commGroup, n)
		for r := range g {
			g[r] = c
		}
		return g
	},
	"tcp": newTCPGroup,
}

// newTCPGroup wires n TCPComm ranks over loopback: every rank binds an
// ephemeral port first, then all connect concurrently.
func newTCPGroup(tb testing.TB, n int) commGroup {
	return newTCPGroupCodec(tb, n, transport.CodecF32)
}

// newTCPGroupCodec is newTCPGroup with an explicit wire codec, for the
// compressed-collective tests and benchmarks.
func newTCPGroupCodec(tb testing.TB, n int, codec transport.Codec) commGroup {
	tb.Helper()
	listeners := make([]*transport.RingListener, n)
	addrs := make([]string, n)
	for r := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[r] = l
		addrs[r] = l.Addr()
	}
	g := make(commGroup, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := range g {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ring, err := listeners[rank].ConnectContext(tb.Context(), rank, addrs, 10*time.Second,
				transport.RingOptions{Codec: codec})
			if err != nil {
				errs[rank] = err
				return
			}
			g[rank] = NewTCPComm(ring)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() {
		for _, c := range g {
			c.Close()
		}
	})
	return g
}

// layout is one physical packing of a ring's ranks into processes.
type layout struct {
	name         string
	procs, local int // procs == 0: the in-process layout (no socket ring)
	codecs       []transport.Codec
}

// layouts is the three layouts of the one ring communicator at a common
// size of 4 ranks, each with the wire codecs that apply to it (in-process
// sums are always exact, so the in-process layout has only f32).
var layouts = []layout{
	{"in-process/n=4", 0, 4, []transport.Codec{transport.CodecF32}},
	{"procs=4/local=1", 4, 1, []transport.Codec{transport.CodecF32, transport.CodecF16}},
	{"procs=2/local=2", 2, 2, []transport.Codec{transport.CodecF32, transport.CodecF16}},
}

// group builds the layout's per-rank communicator handles.
func (ly layout) group(tb testing.TB, codec transport.Codec) commGroup {
	if ly.procs == 0 {
		return backendFactories["chan"](tb, ly.local)
	}
	return newHierGroupCodec(tb, ly.procs, ly.local, codec)
}

// runGroup launches one goroutine per rank and waits for completion.
func runGroup(g commGroup, fn func(rank int, c *Comm)) {
	var wg sync.WaitGroup
	for r := range g {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank, g[rank])
		}(r)
	}
	wg.Wait()
}

// fillRankBufs builds deterministic per-rank buffers of the given length
// and their element-wise float64 sum.
func fillRankBufs(n, length int, seed uint64) (bufs [][]float32, sum []float64) {
	rng := rand.New(rand.NewPCG(seed, 17))
	bufs = make([][]float32, n)
	sum = make([]float64, length)
	for r := range bufs {
		bufs[r] = make([]float32, length)
		for i := range bufs[r] {
			bufs[r][i] = float32(rng.NormFloat64())
			sum[i] += float64(bufs[r][i])
		}
	}
	return bufs, sum
}

// TestCollectiveSuite runs the same correctness checks against every
// backend and rank count.
func TestCollectiveSuite(t *testing.T) {
	for name, factory := range backendFactories {
		for _, n := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				g := factory(t, n)

				t.Run("AllReduceSum", func(t *testing.T) {
					// Length 7 exercises uneven (and, for n=5, empty) chunks.
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
				})

				t.Run("ScaledMean", func(t *testing.T) {
					bufs := make([][]float32, n)
					for r := range bufs {
						bufs[r] = []float32{float32(r), float32(2 * r)}
					}
					runGroup(g, func(rank int, c *Comm) { scaledMean(c, rank, bufs[rank]) })
					wantMean := float32(n-1) / 2
					for r := 0; r < n; r++ {
						if bufs[r][0] != wantMean || bufs[r][1] != 2*wantMean {
							t.Fatalf("rank %d: %v, want mean %v", r, bufs[r], wantMean)
						}
					}
				})

				t.Run("AllReduceSumRange", func(t *testing.T) {
					// The range collective must reduce [lo,hi) and leave the
					// rest of the buffer untouched.
					const length, lo, hi = 13, 3, 11
					bufs, want := fillRankBufs(n, length, 99)
					orig := make([][]float32, n)
					for r := range bufs {
						orig[r] = append([]float32(nil), bufs[r]...)
					}
					runGroup(g, func(rank int, c *Comm) { c.AllReduceSumRange(rank, bufs[rank], lo, hi) })
					for r := 0; r < n; r++ {
						for i := 0; i < length; i++ {
							switch {
							case i < lo || i >= hi:
								if bufs[r][i] != orig[r][i] {
									t.Fatalf("rank %d: elem %d outside range was modified", r, i)
								}
							default:
								if bufs[r][i] != bufs[0][i] {
									t.Fatalf("rank %d differs from rank 0 at %d", r, i)
								}
								if d := float64(bufs[0][i]) - want[i]; d > 1e-4 || d < -1e-4 {
									t.Fatalf("elem %d: got %v, want %v", i, bufs[0][i], want[i])
								}
							}
						}
					}
				})

				t.Run("SumFromRoot", func(t *testing.T) {
					root := (n - 1) / 2
					bufs := make([][]float32, n)
					for r := range bufs {
						bufs[r] = []float32{float32(r), float32(r)}
					}
					runGroup(g, func(rank int, c *Comm) { sumFromRoot(c, rank, root, bufs[rank]) })
					for r := 0; r < n; r++ {
						if bufs[r][0] != float32(root) || bufs[r][1] != float32(root) {
							t.Fatalf("rank %d: %v, want root %d", r, bufs[r], root)
						}
					}
				})

				t.Run("Rendezvous", func(t *testing.T) {
					var mu sync.Mutex
					entered := 0
					fail := false
					runGroup(g, func(rank int, c *Comm) {
						mu.Lock()
						entered++
						mu.Unlock()
						rendezvous(c, rank)
						mu.Lock()
						if entered != n {
							fail = true
						}
						mu.Unlock()
						rendezvous(c, rank) // reusable
					})
					if fail {
						t.Fatal("a rank left the all-reduce before every rank had entered")
					}
				})
			})
		}
	}
}

// TestBackendsBitIdentical pins that the TCP backend computes exactly the
// same floats as the in-process backend: same ring algorithm, same chunking,
// same reduction order — so switching transports cannot perturb a training
// trajectory.
func TestBackendsBitIdentical(t *testing.T) {
	const n, length = 4, 1000
	chanBufs, _ := fillRankBufs(n, length, 7)
	tcpBufs, _ := fillRankBufs(n, length, 7)

	chanGroup := backendFactories["chan"](t, n)
	tcpGroup := newTCPGroup(t, n)
	runGroup(chanGroup, func(rank int, c *Comm) { scaledMean(c, rank, chanBufs[rank]) })
	runGroup(tcpGroup, func(rank int, c *Comm) { scaledMean(c, rank, tcpBufs[rank]) })
	for r := 0; r < n; r++ {
		for i := range chanBufs[r] {
			if chanBufs[r][i] != tcpBufs[r][i] {
				t.Fatalf("rank %d elem %d: chan %v vs tcp %v", r, i, chanBufs[r][i], tcpBufs[r][i])
			}
		}
	}
}

// TestRingSumMatchesSerialReference pins the ring's float reduction order
// against a reference that shares no code with it: chunk j is summed
// starting at rank j and proceeding around the ring, ((x_j + x_j+1) + …).
// Every layout must reproduce that bit for bit — it is what keeps fp32
// training trajectories stable across changes to the communicator.
func TestRingSumMatchesSerialReference(t *testing.T) {
	const n, length = 4, 1003 // uneven chunks
	ref, _ := fillRankBufs(n, length, 11)
	want := make([]float32, length)
	for j := 0; j < n; j++ {
		lo, hi := ChunkRange(length, n, j)
		for i := lo; i < hi; i++ {
			sum := ref[j][i]
			for k := 1; k < n; k++ {
				sum += ref[(j+k)%n][i]
			}
			want[i] = sum
		}
	}
	for _, ly := range layouts {
		t.Run(ly.name, func(t *testing.T) {
			g := ly.group(t, transport.CodecF32)
			bufs, _ := fillRankBufs(n, length, 11)
			runGroup(g, func(rank int, c *Comm) { c.AllReduceSum(rank, bufs[rank]) })
			for r := 0; r < n; r++ {
				for i := range want {
					if bufs[r][i] != want[i] {
						t.Fatalf("rank %d elem %d: ring %v vs serial reference %v", r, i, bufs[r][i], want[i])
					}
				}
			}
		})
	}
}

// ringReceivers counts the goroutines inside (*transport.Ring).RecvFloats.
func ringReceivers() int {
	buf := make([]byte, 1<<20)
	stacks := buf[:runtime.Stack(buf, true)]
	return bytes.Count(stacks, []byte("transport.(*Ring).RecvFloats("))
}

// arrivals is the number of local ranks that have arrived at the
// communicator's barrier in the current round.
func (c *Comm) arrivals() int {
	c.bar.mu.Lock()
	defer c.bar.mu.Unlock()
	return c.bar.arrived
}

// TestAbortUnwedgesParkedRanks is the poison path at the ddp level: with
// every local rank of one endpoint parked mid-collective (their peers never
// enter), Abort makes each of them return an error wrapping
// transport.ErrRingAborted, on every layout. For the in-process layout one
// rank is held back so the others park at the barrier; on a socket ring
// every local rank arrives, and the last one, which runs the process's
// share, blocks in a ring receive.
func TestAbortUnwedgesParkedRanks(t *testing.T) {
	for _, ly := range layouts {
		t.Run(ly.name, func(t *testing.T) {
			g := ly.group(t, transport.CodecF32)
			c := g[0]
			entered := c.LocalRanks()
			if ly.procs == 0 {
				entered-- // the held-back rank plays the absent peer
			}
			errs := make(chan error, entered)
			for r := 0; r < entered; r++ {
				go func(rank int) {
					buf := make([]float32, 64)
					errs <- c.AllReduceSum(rank, buf)
				}(r)
			}
			// Without the abort the ranks would block forever, so any moment
			// is a valid one to poison; waiting until every rank has arrived
			// and, on a socket ring, the last one waits on its predecessor
			// makes "parked mid-collective" the state being tested.
			receivers := 0
			if ly.procs > 0 {
				receivers = 1
			}
			testwait.Until(t, fmt.Sprintf("%d ranks to arrive, %d of them to block receiving", entered, receivers), func() bool {
				return c.arrivals() == entered && ringReceivers() == receivers
			})
			c.Abort()
			for r := 0; r < entered; r++ {
				select {
				case err := <-errs:
					if !errors.Is(err, transport.ErrRingAborted) {
						t.Fatalf("parked rank returned %v, want an error wrapping ErrRingAborted", err)
					}
					if transient(err) {
						t.Fatalf("%v is transient: Retry would re-enter an aborted ring", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a parked rank was not unwedged by Abort")
				}
			}
			if err := c.AllReduceSum(0, make([]float32, 1)); !errors.Is(err, transport.ErrRingAborted) {
				t.Fatalf("collective on a poisoned communicator returned %v", err)
			}
			if err := c.Meet(0, nil); !errors.Is(err, transport.ErrRingAborted) {
				t.Fatalf("Meet on a poisoned communicator returned %v", err)
			}
		})
	}
}

// BenchmarkAllReduceTCP measures the TCP ring all-reduce across 4
// loopback-connected ranks on the 64k-element buffer BenchmarkAllReduce
// uses for the in-process backend, under each wire codec. bytes/op is the
// logical float payload, so MB/s is effective bandwidth and directly
// comparable across codecs; wire-B/op reports what actually crossed the
// socket per operation (halved under f16).
func BenchmarkAllReduceTCP(b *testing.B) {
	const n = 4
	const elems = 1 << 16
	for _, codec := range []transport.Codec{transport.CodecF32, transport.CodecF16} {
		b.Run(codec.String(), func(b *testing.B) {
			g := newTCPGroupCodec(b, n, codec)
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
			sent0, _ := g[0].WireBytes()
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[0].AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			sent1, _ := g[0].WireBytes()
			b.ReportMetric(float64(sent1-sent0)/float64(b.N), "wire-B/op")
			wg.Wait()
		})
	}
}

// TestMismatchedHopFailsCollective breaks the lockstep protocol's word: two
// ranks of one process enter one collective with buffers of different
// lengths. Both ranks must get an error (not a panic, not a read past the
// shorter buffer), and the communicator stays poisoned — in-process, and in
// a process on a socket ring. There the other process's ranks enter the
// same collective with matching buffers, and they must fail too, with a
// dead or aborted link, instead of waiting for frames that never come.
func TestMismatchedHopFailsCollective(t *testing.T) {
	for _, ly := range []layout{{"in-process/n=2", 0, 2, nil}, {"procs=2/local=2", 2, 2, nil}} {
		t.Run(ly.name, func(t *testing.T) {
			g := ly.group(t, transport.CodecF32)
			c := g[0]
			errs := make(chan error, 2)
			for r, n := range []int{64, 48} {
				go func(rank, n int) { errs <- c.AllReduceSum(rank, make([]float32, n)) }(r, n)
			}
			peerErrs := make(chan error, len(g)-2)
			for r := 2; r < len(g); r++ {
				go func(rank int) { peerErrs <- g[rank].AllReduceSum(rank, make([]float32, 64)) }(r)
			}
			timeout := time.After(10 * time.Second)
			for r := 0; r < 2; r++ {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), "-float buffer") {
						t.Fatalf("mismatched collective returned %v", err)
					}
				case <-timeout:
					t.Fatal("a rank hung on a mismatched collective")
				}
			}
			for r := 2; r < len(g); r++ {
				select {
				case err := <-peerErrs:
					if !errors.Is(err, transport.ErrLinkDead) && !errors.Is(err, transport.ErrRingAborted) {
						t.Fatalf("peer process's collective returned %v, want a dead or aborted link", err)
					}
				case <-timeout:
					t.Fatal("a peer process's rank hung on the mismatched collective")
				}
			}
			if err := c.AllReduceSum(0, make([]float32, 1)); err == nil {
				t.Fatal("communicator not poisoned after a protocol violation")
			}
		})
	}
}

// TestHopByReference: the rank that runs a collective's reduction reads and
// writes its siblings' buffers in place, so the one thing a rank must never
// see is a sibling's later write, and a sibling must never see the
// reduction's. Every rank overwrites its whole buffer the instant a
// collective returns and walks straight into the next one — whole-buffer
// and range collectives alternating, odd lengths and lengths below the rank
// count — and every result must still be the sum taken in ring order, on
// the in-process layout and on two processes of two ranks. Run under
// -race: a read that is not ordered before the overwrite is a report, not
// a matter of timing.
func TestHopByReference(t *testing.T) {
	const rounds = 200
	input := func(round, rank, i int) float32 {
		h := uint32(round)*2654435761 + uint32(rank)*40503 + uint32(i)*2246822519
		return float32(int32(h>>9)%100003) * 1e-3
	}
	groups := []struct {
		name  string
		build func(t *testing.T) commGroup
	}{
		{"2ranks", func(t *testing.T) commGroup { return backendFactories["chan"](t, 2) }},
		{"3ranks", func(t *testing.T) commGroup { return backendFactories["chan"](t, 3) }},
		{"4ranks", func(t *testing.T) commGroup { return backendFactories["chan"](t, 4) }},
		{"procs=2/local=2", func(t *testing.T) commGroup { return newHierGroup(t, 2, 2) }},
	}
	for _, gr := range groups {
		for _, length := range []int{1, 3, 7, 64, 1003} {
			t.Run(fmt.Sprintf("%s/%dfloats", gr.name, length), func(t *testing.T) {
				g := gr.build(t)
				n := len(g)
				const pad = 5 // the range collective leaves a margin on both sides
				runGroup(g, func(rank int, c *Comm) {
					buf := make([]float32, pad+length+pad)
					got := make([]float32, length)
					for round := 0; round < rounds; round++ {
						window := buf[pad : pad+length]
						for i := range window {
							window[i] = input(round, rank, i)
						}
						var err error
						if round%2 == 0 {
							err = c.AllReduceSum(rank, window)
						} else {
							err = c.AllReduceSumRange(rank, buf, pad, pad+length)
						}
						copy(got, window)
						for i := range buf {
							buf[i] = float32(-1 - rank) // garbage, before anything else
						}
						if err != nil {
							t.Errorf("rank %d round %d: %v", rank, round, err)
							return
						}
						for j := 0; j < n; j++ {
							lo, hi := ChunkRange(length, n, j)
							for i := lo; i < hi; i++ {
								want := input(round, j, i)
								for k := 1; k < n; k++ {
									want += input(round, (j+k)%n, i)
								}
								if got[i] != want {
									t.Errorf("rank %d round %d elem %d: %v, ring-order sum %v", rank, round, i, got[i], want)
									c.Abort() // the others must not park on a rank that gave up
									return
								}
							}
						}
					}
				})
			})
		}
	}
}
