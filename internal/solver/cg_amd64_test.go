//go:build amd64

package solver

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"melissa/internal/tensor"
)

// TestCGKernelsMatchPortable calls every AVX2 kernel and its portable loop
// on the same operands: elementwise lengths 0–67 (every tail on either side
// of one to sixteen blocks), stencil rows and square fields of 1–12, each
// with every neighbour and update combination, random values mixed with
// zeros of both signs, subnormals, infinities and NaNs.
func TestCGKernelsMatchPortable(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewPCG(3, 8))
	specials := []float64{0, math.Copysign(0, -1), 0x1p-1070, -0x1p-1060, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	for m := 0; m <= 67; m++ {
		for flags := byte(0); flags < 8; flags++ {
			in := cgInputs{
				r: rng.Float64(), diag: 1 + 4*rng.Float64(), beta: rng.Float64(), alpha: rng.Float64() * 2, acc: rng.NormFloat64(),
				rowN: 1 + m%24, n: 1 + m%12, flags: flags,
			}
			in.pool = make([]float64, m)
			for i := range in.pool {
				in.pool[i] = rng.NormFloat64() * 300
				if m%2 == 1 && rng.IntN(5) == 0 {
					in.pool[i] = specials[rng.IntN(len(specials))]
				}
			}
			checkCGKernels(t, in)
		}
	}
}

// FuzzCGKernels is the byte-seeded differential of the same comparison:
// byte 0 chooses the neighbours present and the update flag, bytes 1 and 2
// the stencil row's length and the field's side, the next 40 the raw bits
// of r, the diagonal, β, α and the incoming sum, and every further 8 bytes
// one float64 of the operand pool, which sets the elementwise length. NaN
// operands are folded onto one pattern, and NaN results compare equal
// whatever their payload, as Go's compiler may order a commutative
// operation's operands either way.
func FuzzCGKernels(f *testing.F) {
	if !tensor.HasAVX2() {
		f.Skip("no AVX2 on this CPU")
	}
	seed := []byte{3, 6, 4}
	for _, x := range []float64{0.25, 2, 0.5, 1.5, -3} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	for i, x := range []float64{300, -0.5, 0x1p-1070, math.Inf(1), math.NaN(), 7, math.Copysign(0, -1), 1e300, 412.5} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x*float64(i+1)))
	}
	f.Add(seed)
	f.Add(seed[:3+40+8*3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 43 {
			return
		}
		float := func(b []byte) float64 {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(b)); x == x {
				return x
			}
			return math.NaN()
		}
		in := cgInputs{
			flags: data[0], rowN: 1 + int(data[1]%40), n: 1 + int(data[2]%16),
			r: float(data[3:]), diag: float(data[11:]), beta: float(data[19:]), alpha: float(data[27:]), acc: float(data[35:]),
		}
		for b := data[43:]; len(b) >= 8; b = b[8:] {
			in.pool = append(in.pool, float(b))
		}
		checkCGKernels(t, in)
	})
}

// cgInputs are one comparison's operands: the scalars, a pool every vector
// is drawn from (its length is the elementwise kernels'), the stencil row's
// length rowN, the field's side n and flags — bit 0 a row above, bit 1 a row
// below, bit 2 the search's update.
type cgInputs struct {
	r, diag, beta, alpha, acc float64
	pool                      []float64
	rowN, n                   int
	flags                     byte
}

// vec returns a fresh vector of length m, the pool read from offset k on,
// cyclically; zeros when the pool is empty.
func (in *cgInputs) vec(m, k int) []float64 {
	v := make([]float64, m)
	if len(in.pool) == 0 {
		return v
	}
	for i := range v {
		v[i] = in.pool[(k*7+i)%len(in.pool)]
	}
	return v
}

// checkCGKernels runs each AVX2 kernel and its portable loop on copies of
// the same operands and fails on the first differing bit of any output.
func checkCGKernels(t *testing.T, in cgInputs) {
	t.Helper()
	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if !sameFloat(a[i], b[i]) {
				t.Fatalf("%s[%d]: kernel %v (%#016x), portable %v (%#016x); inputs r %v diag %v β %v α %v acc %v rowN %d n %d flags %d pool %d",
					what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]),
					in.r, in.diag, in.beta, in.alpha, in.acc, in.rowN, in.n, in.flags, len(in.pool))
			}
		}
	}
	// Each pair of calls gets its own copies, built the same way.
	twice := func(f func(k kernels, v func(m, k int) []float64) []float64, what string) {
		t.Helper()
		a, b := f(avx2, in.vec), f(portable, in.vec)
		same(what, a, b)
	}
	m := len(in.pool)

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		n := in.rowN
		out, row := v(n, 0), v(n, 1)
		var up, dn []float64
		if in.flags&1 != 0 {
			up = v(n, 2)
		}
		if in.flags&2 != 0 {
			dn = v(n, 3)
		}
		k.stencilRow(out, row, up, dn, in.r, in.diag)
		return out
	}, "stencilRow")

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		nn := in.n * in.n
		ap, p, res := v(nn, 0), v(nn, 1), v(nn, 2)
		pap := k.search(ap, p, res, in.n, in.r, in.diag, in.flags&4 != 0, in.beta)
		return append(append(ap, p...), pap)
	}, "search (ap, p, p·ap)")

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		p, res := v(m, 0), v(m, 1)
		k.updateDirection(p, res, in.beta)
		return p
	}, "updateDirection")

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		return []float64{k.dotAcc(v(m, 0), v(m, 1), in.acc)}
	}, "dotAcc")

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		x, res, p, ap := v(m, 0), v(m, 1), v(m, 2), v(m, 3)
		rr := k.step(x, res, p, ap, in.alpha)
		return append(append(x, res...), rr)
	}, "step (x, res, r·r)")

	twice(func(k kernels, v func(int, int) []float64) []float64 {
		res, p, rhs, ap := v(m, 0), v(m, 1), v(m, 2), v(m, 3)
		rr, bb := k.residual(res, p, rhs, ap)
		return append(append(res, p...), rr, bb)
	}, "residual (res, p, r·r, b·b)")
}

// sameFloat is bit equality with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}
