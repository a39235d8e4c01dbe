package ddp

// The layout-parametrized collective suite: every link layout of the one
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

// commGroup is n per-rank communicator handles: the channel backend shares
// one object across ranks, the TCP backend builds one ring endpoint per
// rank over loopback.
type commGroup []Communicator

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
			if tc, ok := c.(*TCPComm); ok {
				tc.Close()
			}
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

// layouts is the three link layouts of the one ring communicator at a
// common size of 4 ranks, each with the wire codecs that apply to it
// (channel hops are always exact, so the in-process layout has only f32).
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
func runGroup(g commGroup, fn func(rank int, c Communicator)) {
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
					runGroup(g, func(rank int, c Communicator) { c.AllReduceSum(rank, bufs[rank]) })
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
					runGroup(g, func(rank int, c Communicator) { scaledMean(c, rank, bufs[rank]) })
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
					runGroup(g, func(rank int, c Communicator) { c.AllReduceSumRange(rank, bufs[rank], lo, hi) })
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
					runGroup(g, func(rank int, c Communicator) { sumFromRoot(c, rank, root, bufs[rank]) })
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
					runGroup(g, func(rank int, c Communicator) {
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
// same floats as the channel backend: same ring algorithm, same chunking,
// same reduction order — so switching transports cannot perturb a training
// trajectory.
func TestBackendsBitIdentical(t *testing.T) {
	const n, length = 4, 1000
	chanBufs, _ := fillRankBufs(n, length, 7)
	tcpBufs, _ := fillRankBufs(n, length, 7)

	chanGroup := backendFactories["chan"](t, n)
	tcpGroup := newTCPGroup(t, n)
	runGroup(chanGroup, func(rank int, c Communicator) { scaledMean(c, rank, chanBufs[rank]) })
	runGroup(tcpGroup, func(rank int, c Communicator) { scaledMean(c, rank, tcpBufs[rank]) })
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
		lo, hi := chunkRange(length, n, j)
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
			runGroup(g, func(rank int, c Communicator) { c.AllReduceSum(rank, bufs[rank]) })
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

// hopWaiters counts the goroutines inside (*Comm).recvHop or
// (*Comm).sendHop.
func hopWaiters() int {
	buf := make([]byte, 1<<20)
	stacks := buf[:runtime.Stack(buf, true)]
	return bytes.Count(stacks, []byte("ddp.(*Comm).recvHop(")) + bytes.Count(stacks, []byte("ddp.(*Comm).sendHop("))
}

// TestAbortUnwedgesParkedRanks is the poison path at the ddp level: with
// every local rank of one endpoint parked mid-collective (their peers never
// enter), Abort makes each of them return an error wrapping
// transport.ErrRingAborted, on every link layout. For the in-process layout
// one rank is held back so the others park on their channel hops.
func TestAbortUnwedgesParkedRanks(t *testing.T) {
	for _, ly := range layouts {
		t.Run(ly.name, func(t *testing.T) {
			g := ly.group(t, transport.CodecF32)
			c := g[0].(*Comm)
			parked := c.LocalRanks()
			if ly.procs == 0 {
				parked-- // the held-back rank plays the absent peer
			}
			errs := make(chan error, parked)
			for r := 0; r < parked; r++ {
				go func(rank int) {
					buf := make([]float32, 64)
					errs <- c.AllReduceSum(rank, buf)
				}(r)
			}
			// Without the abort the ranks would block forever, so any moment
			// is a valid one to poison; waiting until every rank is inside a
			// hop makes "parked on a hop" the state being tested. Most park
			// receiving; in-process, the rank before the absent peer parks
			// sending, once its link's credits are out.
			testwait.Until(t, fmt.Sprintf("%d ranks to park on a hop", parked), func() bool {
				return hopWaiters() == parked
			})
			c.Abort()
			for r := 0; r < parked; r++ {
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
		})
	}

	// A sender parks too, once its link's credits are all out (a slow
	// successor); Abort must reach it.
	t.Run("sender", func(t *testing.T) {
		c := NewCommunicator(2)
		errs := make(chan error, 1)
		go func() {
			for {
				if err := c.sendHop(0, make([]float32, 8), false); err != nil {
					errs <- err
					return
				}
			}
		}()
		testwait.Until(t, "the sender to run out of credits", func() bool { return len(c.links[0].free) == 0 })
		c.Abort()
		select {
		case err := <-errs:
			if !errors.Is(err, transport.ErrRingAborted) {
				t.Fatalf("parked sender returned %v, want an error wrapping ErrRingAborted", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a parked sender was not unwedged by Abort")
		}
	})
}

// BenchmarkAllReduceTCP measures the TCP ring all-reduce across 4
// loopback-connected ranks on the 64k-element buffer BenchmarkAllReduce
// uses for the channel backend, under each wire codec. bytes/op is the
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
			sent0, _ := g[0].(*Comm).WireBytes()
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[0].AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			sent1, _ := g[0].(*Comm).WireBytes()
			b.ReportMetric(float64(sent1-sent0)/float64(b.N), "wire-B/op")
			wg.Wait()
		})
	}
}

// TestMismatchedHopFailsCollective breaks the lockstep protocol's word: two
// in-process ranks enter one collective with buffers of different lengths,
// so a hop arrives shorter than the chunk it is accumulated into. Both
// ranks must get an error (not a panic, not a read past the message), and
// the communicator stays poisoned.
func TestMismatchedHopFailsCollective(t *testing.T) {
	c := NewCommunicator(2)
	errs := make(chan error, 2)
	for r, n := range []int{64, 48} {
		go func(rank, n int) { errs <- c.AllReduceSum(rank, make([]float32, n)) }(r, n)
	}
	for r := 0; r < 2; r++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "-float hop") {
				t.Fatalf("mismatched collective returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a rank hung on a mismatched collective")
		}
	}
	if err := c.AllReduceSum(0, make([]float32, 1)); err == nil {
		t.Fatal("communicator not poisoned after a protocol violation")
	}
}

// TestHopByReference: a channel hop hands the successor a reference into the
// sender's buffer, so the one thing a rank must never see is a peer's later
// write. Every rank overwrites its whole buffer the instant a collective
// returns and walks straight into the next one — whole-buffer and range
// collectives alternating, odd lengths and lengths below the rank count —
// and every result must still be the sum taken in ring order. Run under
// -race: a read that is not ordered before the overwrite is a report, not a
// matter of timing.
func TestHopByReference(t *testing.T) {
	const rounds = 200
	input := func(round, rank, i int) float32 {
		h := uint32(round)*2654435761 + uint32(rank)*40503 + uint32(i)*2246822519
		return float32(int32(h>>9)%100003) * 1e-3
	}
	for _, n := range []int{2, 3, 4} {
		for _, length := range []int{1, 3, 7, 64, 1003} {
			t.Run(fmt.Sprintf("%dranks/%dfloats", n, length), func(t *testing.T) {
				c := NewCommunicator(n)
				const pad = 5 // the range collective leaves a margin on both sides
				var wg sync.WaitGroup
				for rank := 0; rank < n; rank++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
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
								lo, hi := chunkRange(length, n, j)
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
					}()
				}
				wg.Wait()
			})
		}
	}
}
