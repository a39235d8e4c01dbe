//go:build amd64

package solver

import "melissa/internal/tensor"

// Declarations of cg_amd64.s and the wrappers init installs in kern. A
// wrapper reslices every operand to the length its kernel reads, so a short
// one panics here, as the Go loop would, and never reaches the assembly.

//go:noescape
func stencilRowKern(out, row, up, dn []float64, r, diag float64)

//go:noescape
func searchKern(ap, p, res []float64, n int, r, diag, beta float64, update bool) float64

//go:noescape
func cgStepKern(x, res, p, ap []float64, alpha float64) (rr float64)

//go:noescape
func residualKern(res, p, rhs, ap []float64) (rr, bb float64)

var avx2 = kernels{stencilRowAVX2, searchAVX2, stepAVX2, residualAVX2}

func init() {
	if tensor.HasAVX2() {
		kern = avx2
	}
}

func stencilRowAVX2(out, row, up, dn []float64, r, diag float64) {
	n := len(row)
	_ = row[0] // the kernel evaluates column 0 before it looks at n
	if up != nil {
		up = up[:n]
	}
	if dn != nil {
		dn = dn[:n]
	}
	stencilRowKern(out[:n], row, up, dn, r, diag)
}

func searchAVX2(ap, p, res []float64, n int, r, diag float64, update bool, beta float64) float64 {
	nn := n * n
	_ = p[nn-1] // and row 0 here: n ≥ 1
	return searchKern(ap[:nn], p[:nn], res[:nn], n, r, diag, beta, update)
}

func stepAVX2(x, res, p, ap []float64, alpha float64) float64 {
	n := len(x)
	return cgStepKern(x, res[:n], p[:n], ap[:n], alpha)
}

func residualAVX2(res, p, rhs, ap []float64) (rr, bb float64) {
	n := len(res)
	return residualKern(res, p[:n], rhs[:n], ap[:n])
}
