package tensor

import "math"

// minNormal32 is 2⁻¹²⁶, the smallest positive normal float32: moments
// below it are stored as zero (see the package comment).
const minNormal32 = 0x1p-126

// AdamStep applies one Adam update over flat parameter slabs with the
// semantics stated in the package comment ("Adam update"); alpha is the
// bias-corrected step size. All four slices must have equal length. Above
// the elementwise work threshold (counted in elements) the sweep is split
// into contiguous chunks on the team; every element is independent, so the
// result does not depend on the chunking.
func (tm *Team) AdamStep(values, grads, m, v []float32, alpha, beta1, beta2, eps float32) {
	if len(grads) != len(values) || len(m) != len(values) || len(v) != len(values) {
		panic("tensor: AdamStep slab length mismatch")
	}
	tm.parallel(len(values), len(values), task{
		op: opAdam, vals: values, grads: grads, m: m, v: v,
		alpha: alpha, beta1: beta1, beta2: beta2, eps: eps,
	})
}

// AdamSumStep is AdamStep over elements [lo, hi) of slabs of one length
// whose gradient is not one slab but the sum of several: element i's
// gradient is
//
//	g = (((srcs[0][i] + srcs[1][i]) + srcs[2][i]) + …) · scale
//
// each addition and the product rounded on its own, and once it has been
// read every slab in zero gets 0 at i (zero may name slabs of srcs). It is
// the whole optimizer pass of a data-parallel step: the reduction, the 1/n,
// the update and the clearing of the gradients, in one sweep. On the team
// it splits like AdamStep.
func (tm *Team) AdamSumStep(values, m, v []float32, srcs, zero [][]float32, lo, hi int, scale, alpha, beta1, beta2, eps float32) {
	n := len(values)
	if len(m) != n || len(v) != n || len(srcs) == 0 || lo < 0 || lo > hi || hi > n {
		panic("tensor: AdamSumStep slab length mismatch")
	}
	for _, s := range srcs {
		if len(s) != n {
			panic("tensor: AdamSumStep slab length mismatch")
		}
	}
	for _, z := range zero {
		if len(z) != n {
			panic("tensor: AdamSumStep slab length mismatch")
		}
	}
	tm.parallel(hi-lo, hi-lo, task{
		op: opAdamSum, vals: values, m: m, v: v, srcs: srcs, zero: zero, off: lo,
		scale: scale, alpha: alpha, beta1: beta1, beta2: beta2, eps: eps,
	})
}

// adamRange and adamSumRange are the active updates over one chunk: the
// AVX2 kernel where microkernel_amd64.go's CPU check passed, the portable
// loop everywhere else. The two are bit-identical, so which one runs is not
// observable.
var (
	adamRange    = adamRangeGo
	adamSumRange = adamSumRangeGo
)

// adamRangeGo is the portable Adam update and the statement of its
// semantics.
func adamRangeGo(values, grads, m, v []float32, alpha, b1, b2, eps float32) {
	values, m, v = values[:len(grads)], m[:len(grads)], v[:len(grads)]
	for j, g := range grads {
		values[j], m[j], v[j] = adamElem(values[j], g, m[j], v[j], alpha, b1, b2, eps)
	}
}

// adamSumRangeGo is the portable AdamSumStep over elements [lo, hi) and
// the statement of its semantics: the sum in the order of srcs, the scale,
// the update, then the zeros.
func adamSumRangeGo(values, m, v []float32, srcs, zero [][]float32, lo, hi int, scale, alpha, b1, b2, eps float32) {
	for j := lo; j < hi; j++ {
		g := srcs[0][j]
		for _, s := range srcs[1:] {
			g += s[j]
		}
		values[j], m[j], v[j] = adamElem(values[j], float32(g*scale), m[j], v[j], alpha, b1, b2, eps)
		for _, z := range zero {
			z[j] = 0
		}
	}
}

// adamElem is the update of one element. Every product is rounded by an
// explicit conversion before it is added, which forbids the fused
// multiply-add a compiler may otherwise emit (arm64 does), and
// float32(math.Sqrt(float64(x))) is the correctly rounded float32 root, the
// value VSQRTPS returns.
func adamElem(w, g, m, v, alpha, b1, b2, eps float32) (float32, float32, float32) {
	m = float32(b1*m) + float32((1-b1)*g)
	v = float32(b2*v) + float32(float32((1-b2)*g)*g)
	if m < minNormal32 && m > -minNormal32 {
		m = 0
	}
	if v < minNormal32 {
		v = 0
	}
	return w - float32(alpha*m)/(float32(math.Sqrt(float64(v)))+eps), m, v
}
