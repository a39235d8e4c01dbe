package tensor

import "math"

// minNormal32 is 2⁻¹²⁶, the smallest positive normal float32: moments
// below it are stored as zero (see the package comment).
const minNormal32 = 0x1p-126

// AdamStep applies one Adam update over flat parameter slabs with the
// semantics stated in the package comment ("Adam update"); alpha is the
// bias-corrected step size. All four slices must have equal length. The
// pass is a single sweep over the slabs, inline.
func AdamStep(values, grads, m, v []float32, alpha, beta1, beta2, eps float32) {
	(*Team)(nil).AdamStep(values, grads, m, v, alpha, beta1, beta2, eps)
}

// AdamStep is the package's AdamStep on the team: above the elementwise
// work threshold (counted in elements) the sweep is split into contiguous
// chunks; every element is independent, so the result does not depend on
// the chunking.
func (tm *Team) AdamStep(values, grads, m, v []float32, alpha, beta1, beta2, eps float32) {
	if len(grads) != len(values) || len(m) != len(values) || len(v) != len(values) {
		panic("tensor: AdamStep slab length mismatch")
	}
	tm.parallel(len(values), len(values), task{
		op: opAdam, vals: values, grads: grads, m: m, v: v,
		alpha: alpha, beta1: beta1, beta2: beta2, eps: eps,
	})
}

// adamRange is the active update over one chunk: the AVX2 kernel where
// microkernel_amd64.go's CPU check passed, adamRangeGo everywhere else. The
// two are bit-identical, so which one runs is not observable.
var adamRange = adamRangeGo

// adamRangeGo is the portable Adam update and the statement of its
// semantics. Every product is rounded by an explicit conversion before it is
// added, which forbids the fused multiply-add a compiler may otherwise emit
// (arm64 does), and float32(math.Sqrt(float64(x))) is the correctly rounded
// float32 root, the value VSQRTPS returns.
func adamRangeGo(values, grads, m, v []float32, alpha, b1, b2, eps float32) {
	omb1, omb2 := 1-b1, 1-b2
	values, m, v = values[:len(grads)], m[:len(grads)], v[:len(grads)]
	for j, g := range grads {
		mj := float32(b1*m[j]) + float32(omb1*g)
		vj := float32(b2*v[j]) + float32(float32(omb2*g)*g)
		if mj < minNormal32 && mj > -minNormal32 {
			mj = 0
		}
		if vj < minNormal32 {
			vj = 0
		}
		m[j], v[j] = mj, vj
		values[j] -= float32(alpha*mj) / (float32(math.Sqrt(float64(vj))) + eps)
	}
}
