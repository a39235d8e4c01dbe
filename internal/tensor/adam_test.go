package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
)

// adamImpl is the shape shared by adamRangeGo, the assembly wrapper and the
// historical reference.
type adamImpl func(values, grads, m, v []float32, alpha, b1, b2, eps float32)

// adamHistorical is the scalar loop AdamStep ran before the kernel existed:
// the same operation order with no flush. The conversions spell out the
// rounding the amd64 compiler applied (it never fuses), which is what every
// recorded trajectory was produced with.
func adamHistorical(values, grads, m, v []float32, alpha, b1, b2, eps float32) {
	for j, g := range grads {
		m[j] = float32(b1*m[j]) + float32((1-b1)*g)
		v[j] = float32(b2*v[j]) + float32(float32((1-b2)*g)*g)
		values[j] -= float32(alpha*m[j]) / (float32(math.Sqrt(float64(v[j]))) + eps)
	}
}

var adamNaN = math.Float32frombits(0x7fc00000)

// adamSpecial draws from the values a float32 update has edge cases on:
// ±0, subnormals, the neighbourhood of 2⁻¹²⁶, huge values, ±Inf and (when
// allowed) NaN.
func adamSpecial(rng *rand.Rand, nan bool) float32 {
	sign := float32(1)
	if rng.IntN(2) == 0 {
		sign = -1
	}
	k := rng.IntN(6)
	if !nan {
		k = rng.IntN(5)
	}
	switch k {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(1+rng.Uint32N(0x7fffff))
	case 2:
		return sign * minNormal32 * float32(0.5+1.5*rng.Float64())
	case 3:
		return sign * float32(math.Exp(rng.Float64()*18+70)) // e⁷⁰ … MaxFloat32
	case 4:
		return sign * float32(math.Inf(1))
	}
	return adamNaN
}

func adamNormal(rng *rand.Rand) float32 {
	return float32(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(9)-6)))
}

// adamDraw returns a special value a third of the time.
func adamDraw(rng *rand.Rand, nan bool) float32 {
	if rng.IntN(3) == 0 {
		return adamSpecial(rng, nan)
	}
	return adamNormal(rng)
}

// checkAdamImpls runs a and b for steps steps from one random state and
// requires values, m and v to be bit-equal after the first and the last.
//
// When two NaNs with different bits meet in an add or a multiply, the one
// that comes out is the operand the compiler placed first, which the
// stated semantics leave open. Inputs therefore carry one NaN pattern, and a
// lane's gradient is NaN at every step or at none: then the only NaNs that
// meet in a commutative operation are equal, and division and subtraction
// return their first operand on both sides.
func checkAdamImpls(t *testing.T, a, b adamImpl, seed uint64, n, steps int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	state := func() [3][]float32 {
		var s [3][]float32
		for i := range s {
			s[i] = make([]float32, n)
		}
		return s
	}
	sa, sb := state(), state()
	grads := make([]float32, n)
	for i := 0; i < n; i++ {
		grads[i] = adamDraw(rng, true)
		for k := range sa {
			sa[k][i] = adamDraw(rng, true)
			sb[k][i] = sa[k][i]
		}
	}
	for s := 1; s <= steps; s++ {
		a(sa[0], grads, sa[1], sa[2], 1e-3, 0.9, 0.999, 1e-8)
		b(sb[0], grads, sb[1], sb[2], 1e-3, 0.9, 0.999, 1e-8)
		if s == 1 || s == steps {
			for k, name := range []string{"values", "m", "v"} {
				for i := range sa[k] {
					if x, y := math.Float32bits(sa[k][i]), math.Float32bits(sb[k][i]); x != y {
						t.Fatalf("n=%d step %d: %s[%d] = %#08x vs %#08x (g %v)", n, s, name, i, x, y, grads[i])
					}
				}
			}
		}
		for i, g := range grads {
			if g == g {
				grads[i] = adamDraw(rng, false)
			}
		}
	}
}

// TestAdamStepChunksMatchSerial splits a slab with edge-case lanes across
// a team (chunk boundaries off the 8-lane grid, so every chunk has a scalar
// tail) on either side of the fan-out threshold and compares it with one
// serial pass of the portable update, for five steps (one under -short).
func TestAdamStepChunksMatchSerial(t *testing.T) {
	tm := NewTeam(2)
	t.Cleanup(tm.Close)
	for _, n := range []int{elemwiseParallelThreshold - 1, elemwiseParallelThreshold + 13} {
		checkAdamImpls(t, tm.AdamStep, adamRangeGo, 11, n, shortOr(1, 5))
	}
}

func isSubnormal(x float32) bool { return x != 0 && x > -minNormal32 && x < minNormal32 }

// TestAdamMomentsNeverSubnormal starts every moment at 2⁻¹²⁰ under a zero
// gradient — a ReLU unit that has just died — and requires each stored
// moment to be zero or normal at every step on the way down, and exactly
// zero in the end. Before the flush they stuck at k·2⁻¹⁴⁹ for ever.
func TestAdamMomentsNeverSubnormal(t *testing.T) {
	for name, impl := range map[string]adamImpl{"active": adamRange, "portable": adamRangeGo} {
		const n = 67
		values, grads := make([]float32, n), make([]float32, n)
		m, v := make([]float32, n), make([]float32, n)
		for i := range m {
			m[i], v[i] = 0x1p-120, 0x1p-120
			if i%2 == 1 {
				m[i] = -m[i]
			}
			values[i] = float32(i) - 33
		}
		for step := 0; step < 6000; step++ {
			impl(values, grads, m, v, 1e-3, 0.9, 0.999, 1e-8)
			for i := range m {
				if isSubnormal(m[i]) || isSubnormal(v[i]) {
					t.Fatalf("%s step %d: stored subnormal m[%d]=%g v[%d]=%g", name, step, i, m[i], i, v[i])
				}
			}
		}
		for i := range m {
			if math.Float32bits(m[i]) != 0 || math.Float32bits(v[i]) != 0 {
				t.Fatalf("%s: moments did not reach +0: m[%d]=%g v[%d]=%g", name, i, m[i], i, v[i])
			}
		}
	}
}

// TestAdamMatchesHistoricalWithoutSubnormals is what keeps every trajectory
// gate meaningful: while no moment is subnormal the update equals the
// pre-kernel scalar loop bit-for-bit. A third of the lanes have a zero
// gradient throughout (units dead from the start: moments stay 0), a third
// die at step 50 (their moments decay but are still normal at step 200).
func TestAdamMatchesHistoricalWithoutSubnormals(t *testing.T) {
	for name, impl := range map[string]adamImpl{"active": adamRange, "portable": adamRangeGo} {
		const n = 1003
		rng := rand.New(rand.NewPCG(5, 6))
		got, want := [3][]float32{}, [3][]float32{}
		for k := range got {
			got[k], want[k] = make([]float32, n), make([]float32, n)
		}
		for i := 0; i < n; i++ {
			got[0][i] = float32(rng.NormFloat64())
			want[0][i] = got[0][i]
		}
		grads := make([]float32, n)
		for step := 0; step < 200; step++ {
			for i := range grads {
				grads[i] = 0
				if i%3 == 0 || (i%3 == 1 && step < 50) {
					grads[i] = float32(rng.NormFloat64() * 0.05)
				}
			}
			impl(got[0], grads, got[1], got[2], 1e-3, 0.9, 0.999, 1e-8)
			adamHistorical(want[0], grads, want[1], want[2], 1e-3, 0.9, 0.999, 1e-8)
			for k, slab := range []string{"values", "m", "v"} {
				for i := range got[k] {
					if isSubnormal(want[k][i]) {
						t.Fatalf("%s step %d: reference %s[%d] is subnormal; the test's premise is broken", name, step, slab, i)
					}
					if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
						t.Fatalf("%s step %d: %s[%d] = %g, historical %g", name, step, slab, i, got[k][i], want[k][i])
					}
				}
			}
		}
	}
}

// adamSumImpl is the shape shared by adamSumRangeGo and its assembly
// wrapper.
type adamSumImpl func(values, m, v []float32, srcs, zero [][]float32, lo, hi int, scale, alpha, b1, b2, eps float32)

// sameBits reports whether x and y are the same float32, any two NaNs
// counting as one: a sum of +∞ and −∞ is the other NaN encoding, and when it
// meets a NaN source either may come out (see checkAdamImpls). A NaN never
// turns back into a number in the update, so nothing else depends on which.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// checkAdamSumImpls runs a and b for steps steps over [lo, n) of one random
// state with nsrc gradient slabs, the first clear of them also cleared by
// the pass (clear ≤ nsrc; a further slab outside the sum is cleared when
// clear < 0), and requires every slab, inside the range and out, to match
// after each step. The sources are redrawn between steps, so a cleared slab
// is summed again.
func checkAdamSumImpls(t *testing.T, a, b adamSumImpl, seed uint64, n, nsrc, clear, lo int, scale float32, steps int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(n*8+nsrc)))
	slabs := func() [][]float32 {
		s := make([][]float32, 3+nsrc+1) // values, m, v, sources, a bystander
		for i := range s {
			s[i] = make([]float32, n)
		}
		return s
	}
	sa, sb := slabs(), slabs()
	draw := func(k int) {
		for i := 0; i < n; i++ {
			sa[k][i] = adamDraw(rng, true)
			sb[k][i] = sa[k][i]
		}
	}
	for k := range sa {
		draw(k)
	}
	zero := func(s [][]float32) [][]float32 {
		if clear < 0 {
			return s[3+nsrc:]
		}
		return s[3 : 3+clear]
	}
	for s := 1; s <= steps; s++ {
		a(sa[0], sa[1], sa[2], sa[3:3+nsrc], zero(sa), lo, n, scale, 1e-3, 0.9, 0.999, 1e-8)
		b(sb[0], sb[1], sb[2], sb[3:3+nsrc], zero(sb), lo, n, scale, 1e-3, 0.9, 0.999, 1e-8)
		for k := range sa {
			for i := range sa[k] {
				if !sameBits(sa[k][i], sb[k][i]) {
					t.Fatalf("n=%d lo=%d sources %d clear %d step %d: slab %d [%d] = %#08x vs %#08x", n, lo, nsrc, clear, s, k, i, math.Float32bits(sa[k][i]), math.Float32bits(sb[k][i]))
				}
			}
		}
		for k := 3; k < 3+nsrc && s < steps; k++ {
			draw(k)
		}
	}
}

// TestAdamSumStepIsSumScaleStepZero states AdamSumStep by the passes it
// replaces in a training step: copy srcs[0], Add the other sources in
// order, Scal by the scale, AdamStep, then clear every slab of zero over
// the range — bit-for-bit, inline and on a team (above the fan-out
// threshold too, for one step under -short), with a range that starts off
// the 8-lane grid.
func TestAdamSumStepIsSumScaleStepZero(t *testing.T) {
	tm := NewTeam(2)
	t.Cleanup(tm.Close)
	passes := func(values, m, v []float32, srcs, zero [][]float32, lo, hi int, scale, alpha, b1, b2, eps float32) {
		g := append([]float32(nil), srcs[0][lo:hi]...)
		for _, s := range srcs[1:] {
			Add(g, s[lo:hi])
		}
		Scal(scale, g)
		AdamStep(values[lo:hi], g, m[lo:hi], v[lo:hi], alpha, b1, b2, eps)
		for _, z := range zero {
			Zero(z[lo:hi])
		}
	}
	for nsrc := 1; nsrc <= 4; nsrc++ {
		scale := 1 / float32(nsrc)
		checkAdamSumImpls(t, tm.AdamSumStep, passes, 3, 67, nsrc, nsrc, 5, scale, 3)
		checkAdamSumImpls(t, (*Team)(nil).AdamSumStep, passes, 4, 67, nsrc, -1, 0, scale, 3)
	}
	checkAdamSumImpls(t, tm.AdamSumStep, passes, 5, elemwiseParallelThreshold+13, 3, 3, 5, 1.0/3, shortOr(1, 2))
}
