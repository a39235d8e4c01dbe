package ddp

// Tests for the compressed (binary16 wire codec) collectives: cross-rank
// agreement and tolerance across backends and shapes, the exactness
// carve-out (small collectives), error-feedback behaviour over
// repeated steps, repeat determinism, and the halved-bytes property the
// compression exists for.

import (
	"fmt"
	"math"
	"testing"

	"melissa/internal/transport"
)

// compressGroups builds the backend × shape matrix for a given codec:
// flat TCP rings for local=1 shapes and hierarchical groups for local=2,
// covering procs ∈ {2,4} like TestHierBitIdenticalToFlat.
func compressGroups(tb testing.TB, codec transport.Codec) map[string]commGroup {
	groups := map[string]commGroup{}
	for _, procs := range []int{2, 4} {
		groups[fmt.Sprintf("tcp/procs=%d", procs)] = newTCPGroupCodec(tb, procs, codec)
		for _, local := range []int{1, 2} {
			groups[fmt.Sprintf("hier/procs=%d/local=%d", procs, local)] = newHierGroupCodec(tb, procs, local, codec)
		}
	}
	return groups
}

// compressedSums are the two reductions an f16 ring runs: the error-fed
// range collective of the gradient path ("f16"), and AllReduceSum, which
// carries no residual ("f16-noef").
var compressedSums = []struct {
	name string
	sum  func(c *Comm, rank int, buf []float32) error
}{
	{"f16", func(c *Comm, rank int, buf []float32) error {
		return c.AllReduceSumRange(rank, buf, 0, len(buf))
	}},
	{"f16-noef", func(c *Comm, rank int, buf []float32) error { return c.AllReduceSum(rank, buf) }},
}

// TestCompressedAllReduceTolerance checks both reductions of an f16 ring
// on every backend × shape: all ranks must agree bitwise, and the result
// must stay within the quantization error budget of the exact float64 sum.
func TestCompressedAllReduceTolerance(t *testing.T) {
	const length = 4096
	for _, mode := range compressedSums {
		for name, g := range compressGroups(t, transport.CodecF16) {
			t.Run(fmt.Sprintf("%s/%s", mode.name, name), func(t *testing.T) {
				n := len(g)
				bufs, want := fillRankBufs(n, length, 23)
				runGroup(g, func(rank int, c *Comm) {
					if err := mode.sum(c, rank, bufs[rank]); err != nil {
						t.Error(err)
					}
				})
				// Budget: one input quantization per rank plus one partial-sum
				// requantization per network hop. Inputs are N(0,1), so sums
				// stay well under 16 and the f16 ULP under 2^-6.
				tol := float64(n+n) * math.Ldexp(1, -7)
				for r := 0; r < n; r++ {
					for i := range want {
						if bufs[r][i] != bufs[0][i] {
							t.Fatalf("rank %d differs from rank 0 at elem %d: %v vs %v", r, i, bufs[r][i], bufs[0][i])
						}
						if d := math.Abs(float64(bufs[0][i]) - want[i]); d > tol {
							t.Fatalf("elem %d: got %v, want %v (err %g > %g)", i, bufs[0][i], want[i], d, tol)
						}
					}
				}
			})
		}
	}
}

// TestCompressedSmallCollectiveExact pins the compressMinFloats carve-out:
// collectives below the threshold (like the trainer's 3-float status
// all-reduce) must stay exact float32 even on a compressed ring, bit-equal
// to the in-process backend.
func TestCompressedSmallCollectiveExact(t *testing.T) {
	const n = 4
	length := compressMinFloats - 1
	f16Bufs, _ := fillRankBufs(n, length, 5)
	refBufs, _ := fillRankBufs(n, length, 5)
	g := newTCPGroupCodec(t, n, transport.CodecF16)
	ref := backendFactories["chan"](t, n)
	runGroup(g, func(rank int, c *Comm) { c.AllReduceSumRange(rank, f16Bufs[rank], 0, length) })
	runGroup(ref, func(rank int, c *Comm) { c.AllReduceSumRange(rank, refBufs[rank], 0, length) })
	for r := 0; r < n; r++ {
		for i := 0; i < length; i++ {
			if f16Bufs[r][i] != refBufs[r][i] {
				t.Fatalf("rank %d elem %d: f16 ring %v vs exact %v", r, i, f16Bufs[r][i], refBufs[r][i])
			}
		}
	}
}

// TestCompressedRepeatDeterminism pins the determinism contract: two
// freshly built groups running the same call sequence produce bit-identical
// results, for both reductions of an f16 ring and both backends.
func TestCompressedRepeatDeterminism(t *testing.T) {
	const length = 2048
	const steps = 3
	run := func(g commGroup, sum func(c *Comm, rank int, buf []float32) error) [][]float32 {
		n := len(g)
		out := make([][]float32, n)
		bufs := make([][]float32, n)
		for s := 0; s < steps; s++ {
			step, _ := fillRankBufs(n, length, uint64(100+s))
			for r := range bufs {
				bufs[r] = step[r]
			}
			runGroup(g, func(rank int, c *Comm) {
				if err := sum(c, rank, bufs[rank]); err != nil {
					t.Error(err)
				}
			})
		}
		for r := range bufs {
			out[r] = bufs[r]
		}
		return out
	}
	for _, mode := range compressedSums {
		t.Run(mode.name, func(t *testing.T) {
			for name, build := range map[string]func(testing.TB) commGroup{
				"tcp":  func(tb testing.TB) commGroup { return newTCPGroupCodec(tb, 4, transport.CodecF16) },
				"hier": func(tb testing.TB) commGroup { return newHierGroupCodec(tb, 2, 2, transport.CodecF16) },
			} {
				t.Run(name, func(t *testing.T) {
					a := run(build(t), mode.sum)
					b := run(build(t), mode.sum)
					for r := range a {
						for i := range a[r] {
							if a[r][i] != b[r][i] {
								t.Fatalf("rank %d elem %d: run A %v vs run B %v", r, i, a[r][i], b[r][i])
							}
						}
					}
				})
			}
		})
	}
}

// TestCompressedErrorFeedback pins why the gradient path carries residuals:
// with a persistent per-step gradient bias, raw quantization (AllReduceSum
// on the same f16 ring) loses the same error every step, while error
// feedback (AllReduceSumRange) re-injects it — so the accumulated sum over
// many steps tracks the exact accumulation strictly better. The same fixed
// per-rank "gradients" are reduced repeatedly (the worst case for dropped
// error) and the running totals compared against exact float64.
func TestCompressedErrorFeedback(t *testing.T) {
	const n = 4
	const length = 4096
	const steps = 20
	grads, _ := fillRankBufs(n, length, 77)
	// Exact per-step sum in float64.
	exact := make([]float64, length)
	for r := 0; r < n; r++ {
		for i, v := range grads[r] {
			exact[i] += float64(v)
		}
	}

	g := newTCPGroupCodec(t, n, transport.CodecF16)
	accumulate := func(sum func(c *Comm, rank int, buf []float32) error) []float64 {
		acc := make([]float64, length)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, length)
		}
		for s := 0; s < steps; s++ {
			for r := range bufs {
				copy(bufs[r], grads[r])
			}
			runGroup(g, func(rank int, c *Comm) {
				if err := sum(c, rank, bufs[rank]); err != nil {
					t.Error(err)
				}
			})
			for i, v := range bufs[0] {
				acc[i] += float64(v)
			}
		}
		return acc
	}

	l2err := func(acc []float64) float64 {
		var sum float64
		for i := range acc {
			d := acc[i]/steps - exact[i]
			sum += d * d
		}
		return math.Sqrt(sum)
	}

	efErr := l2err(accumulate(compressedSums[0].sum))
	rawErr := l2err(accumulate(compressedSums[1].sum))
	t.Logf("mean-step L2 error over %d steps: ef=%g raw=%g", steps, efErr, rawErr)
	// EF annihilates the input-quantization bias but not the hop-wise
	// requantization of partial sums (which is identical in both modes and
	// not error-fed — see docs/communication.md), so the win is a solid
	// fraction, not orders of magnitude. The run is fully deterministic;
	// the margin below has real headroom over the observed ratio.
	if efErr >= 0.85*rawErr {
		t.Fatalf("error feedback did not help enough: ef L2 %g vs raw L2 %g", efErr, rawErr)
	}
}

// TestCompressedWireBytesHalved pins the point of the whole exercise: the
// same collective moves about half the bytes on a CodecF16 ring. Framing
// overhead keeps it from exactly 2×, so assert a ≥1.9× reduction.
func TestCompressedWireBytesHalved(t *testing.T) {
	const n = 4
	const length = 1 << 14
	measure := func(codec transport.Codec) uint64 {
		g := newTCPGroupCodec(t, n, codec)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, length)
		}
		runGroup(g, func(rank int, c *Comm) { c.AllReduceSumRange(rank, bufs[rank], 0, length) })
		// The received count: a rank returns once it has read every hop,
		// while its writer goroutine may not have counted the last send yet.
		_, recv := g[0].WireBytes()
		return recv
	}
	f32 := measure(transport.CodecF32)
	f16 := measure(transport.CodecF16)
	t.Logf("wire bytes per rank: f32=%d f16=%d (ratio %.2f)", f32, f16, float64(f32)/float64(f16))
	if float64(f32) < 1.9*float64(f16) {
		t.Fatalf("f16 ring sent %d bytes vs f32's %d: less than 1.9x reduction", f16, f32)
	}
}

// TestCommWireCodecAndBytes pins what each layout of Comm reports about
// its wire: the codec its ring negotiated, and bytes only for socket hops.
func TestCommWireCodecAndBytes(t *testing.T) {
	for name, g := range map[string]commGroup{
		"tcp":  newTCPGroupCodec(t, 2, transport.CodecF16),
		"hier": newHierGroupCodec(t, 2, 2, transport.CodecF16),
	} {
		c := g[0]
		if c.WireCodec() != transport.CodecF16 {
			t.Fatalf("%s: codec %v, want f16", name, c.WireCodec())
		}
		bufs, _ := fillRankBufs(len(g), 64, 3)
		runGroup(g, func(rank int, c *Comm) { c.AllReduceSum(rank, bufs[rank]) })
		// Only the received count is settled when the collective returns
		// (see TestCompressedWireBytesHalved).
		if _, recv := c.WireBytes(); recv == 0 {
			t.Fatalf("%s: no wire bytes received after a collective", name)
		}
	}
	// The in-process layout has no socket hops: always exact, no wire bytes.
	c := NewCommunicator(2)
	if sent, recv := c.WireBytes(); c.WireCodec() != transport.CodecF32 || sent != 0 || recv != 0 {
		t.Fatalf("in-process layout reports codec %v, %d/%d wire bytes", c.WireCodec(), sent, recv)
	}
}
