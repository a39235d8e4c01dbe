package tensor

import "fmt"

// Factors is one rank's gradient of a Dense layer's weight over one batch,
// held as the two factors backward computes: the layer input X (rows × in)
// and the pre-activation gradient DZ (rows × out). The gradient they stand
// for is the in×out matrix Xᵀ·DZ, never stored. A rank with no batch has
// zero rows, and its gradient is zero.
type Factors struct {
	X, DZ *Matrix
}

// AdamFactorStep is AdamSumStep over elements [lo, hi) of one weight — an
// in×out matrix, row-major, at values, m and v — whose gradient is held as
// factors: element (i, j)'s gradient is
//
//	g = ((Xᵀ·DZ)₀ᵢⱼ + (Xᵀ·DZ)₁ᵢⱼ + …) · scale
//
// each term exactly as MatMulATBAdd forms it into a zero slab, the terms
// added in the order of srcs, then the update. It is the optimizer pass of
// a data-parallel step for a weight: the dW GEMMs, the reduction, the 1/n
// and the update in one sweep that forms each element's gradient in
// registers, so no gradient slab is written or read. It fans out where the
// dW GEMMs it replaces did (work in multiply-adds) or where AdamStep would,
// whichever comes first; the result does not depend on the chunking. The
// kernel belongs to the GEMM's kernel level — the portable loop, or the
// AVX2 kernel (adam_amd64.s) at the avx2 and avx512 levels — and every
// level gives the same bits.
func (tm *Team) AdamFactorStep(values, m, v []float32, srcs []Factors, lo, hi int, scale, alpha, beta1, beta2, eps float32) {
	n := len(values)
	if len(m) != n || len(v) != n || len(srcs) == 0 || lo < 0 || lo > hi || hi > n {
		panic("tensor: AdamFactorStep slab length mismatch")
	}
	in, out, rows := srcs[0].X.Cols, srcs[0].DZ.Cols, 0
	for _, f := range srcs {
		if f.X.Cols != in || f.DZ.Cols != out || f.X.Rows != f.DZ.Rows || in*out != n {
			panic(fmt.Sprintf("tensor: AdamFactorStep factors %dx%d and %dx%d for a %d-float weight", f.X.Rows, f.X.Cols, f.DZ.Rows, f.DZ.Cols, n))
		}
		rows += f.X.Rows
	}
	// Every chunk reads DZ from one copy whose rows are factorPad floats
	// longer than DZ's: in place, the rows of a 1024-wide layer's DZ lie
	// 4 KiB apart, so the ten a kernel chain reads share one set of the L1
	// cache, which holds eight.
	ldz := out + factorPad
	dz := getSharedB(rows * ldz)
	at := 0
	for _, f := range srcs {
		for p := 0; p < f.DZ.Rows; p++ {
			copy(dz[at:at+out], f.DZ.Row(p))
			at += ldz
		}
	}
	tm.parallel(hi-lo, (hi-lo)*max(rows, 2), task{
		op: opAdamFactor, vals: values, m: m, v: v, factors: srcs, shared: dz, off: lo,
		scale: scale, alpha: alpha, beta1: beta1, beta2: beta2, eps: eps,
	})
	putSharedB(dz)
}

// factorPad is how many floats longer than DZ's rows AdamFactorStep lays
// out its copy's: one cache line, so consecutive rows fall in consecutive
// sets.
const factorPad = 16

// adamFactorRangeGo is the portable AdamFactorStep over elements [lo, hi)
// of the weight and the statement of its semantics: each source's gradient
// by factorGrad, their sum in the order of srcs, the scale, the update. It
// reads DZ in place, not the kernels' copy dz.
func adamFactorRangeGo(values, m, v []float32, srcs []Factors, _ []float32, lo, hi int, scale, alpha, b1, b2, eps float32) {
	cols := srcs[0].DZ.Cols
	for e := lo; e < hi; e++ {
		i, j := e/cols, e%cols
		g := factorGrad(srcs[0], i, j)
		for _, f := range srcs[1:] {
			g += factorGrad(f, i, j)
		}
		values[e], m[e], v[e] = adamElem(values[e], float32(g*scale), m[e], v[e], alpha, b1, b2, eps)
	}
}

// factorGrad is element (i, j) of Xᵀ·DZ as MatMulATBAdd leaves it in a zero
// slab: on the blocked driver, per blockK slab of the batch rows one fused
// chain from +0 over the slab's rows ascending, each chain added onto the
// element in turn (the tile kernel's order, at every level); below
// naiveMaxWork the naive kernel's order, one product and one add per row
// (Axpy's expression, so a compiler that fuses one fuses both). With no rows
// it is +0.
func factorGrad(f Factors, i, j int) float32 {
	x, dz := f.X, f.DZ
	in, out, k := x.Cols, dz.Cols, x.Rows
	var c float32
	if !useBlocked(gemmTNAdd, in, out, k) {
		for p := 0; p < k; p++ {
			c += x.Data[p*in+i] * dz.Data[p*out+j]
		}
		return c
	}
	for k0 := 0; k0 < k; k0 += blockK {
		var acc float32
		for p := k0; p < min(k0+blockK, k); p++ {
			acc = fma32(x.Data[p*in+i], dz.Data[p*out+j], acc)
		}
		c += acc
	}
	return c
}
