package solver

import "math"

// solveCG solves A·x = rhs with conjugate gradients, where
// A = (1+4r)·I − r·S and S is the interior 4-neighbour stencil. The system
// is symmetric positive definite for any r > 0. x is warm-started from the
// previous field u, which typically converges within a handful of
// iterations for diffusion-sized time steps.
//
// An iteration is two passes over the field. Pass 1 evaluates A·p and the
// dot product p·Ap; pass 2 updates x and the residual r and sums r·r. The
// direction update p ← r + βp that ends iteration k in the textbook loop is
// deferred into pass 1 of iteration k+1. On the one-strip engine (the
// default) pass 1 is fused row by row: it brings row i+1 of p up to date,
// evaluates row i of A·p — whose stencil reads rows i−1, i and i+1, all
// updated by then — and adds that row's products to p·Ap in the same loop.
// The multi-strip engine keeps its halo exchange, so there the update is a
// sweep of its own and p·Ap is summed after the strips return.
//
// Fusing moves no arithmetic. Every element of A·p is the expression
// stencilRowGo defines, both dot products add their terms one by one in
// index order, and every product is rounded by a float64 conversion before
// it is added, so no target contracts it into an FMA: the fields are the
// same bits on either engine and at any worker count
// (TestParallelMatchesSequential, FuzzSolverStrips), and those of the
// textbook loop evaluated one rounded operation at a time.
//
// # Kernels
//
// Every per-element loop of a solve goes through kern, one set of functions
// chosen once at init: the row stencil (A·x for the initial residual, A·p
// on the multi-strip engine), pass 1 of the one-strip engine (the deferred
// direction update, the stencil and p·Ap, edge rows and columns included),
// the multi-strip engine's direction update and whole-field dot, pass 2, and
// the initial residual r = p = b − Ax with r·r and b·b. The Go loops below
// (…Go) are the statement of their semantics and all there is off amd64; on
// amd64 with AVX2 (tensor.HasAVX2, the module's one CPU probe) cg_amd64.s
// runs them four lanes at a time. The contract a kernel keeps: each
// element's products and differences are taken in the Go expression's
// order, each rounded on its own (a vector multiply, subtract or add, never
// an FMA), and every sum stays one serial scalar chain in index order — the
// vector lanes' products are added to it one at a time. So the kernels leave
// the Go loops' bits (TestFieldDigestPinned, FuzzCGKernels), and the two
// serial chains of an iteration, p·Ap and r·r, are its speed floor.
func (s *Simulation) solveCG() error {
	x := s.u
	p, res, ap := s.p[:len(x)], s.res[:len(x)], s.ap[:len(x)]
	// res = p = rhs − A·x
	s.eng.apply(ap, x)
	rr, bb := kern.residual(res, p, s.rhs[:len(x)], ap)
	bNorm := math.Sqrt(bb)
	if bNorm == 0 {
		bNorm = 1
	}
	tol := s.cfg.CGTol * bNorm

	// The first iteration's p is already r: nothing to update.
	update, beta := false, 0.0
	for iter := 0; iter < s.cfg.CGMaxIter; iter++ {
		if math.Sqrt(rr) <= tol {
			return nil
		}
		var pap float64
		if len(s.eng.strips) == 1 {
			pap = kern.search(ap, p, res, s.eng.n, s.eng.r, s.eng.diag, update, beta)
		} else {
			if update {
				kern.updateDirection(p, res, beta)
			}
			s.eng.apply(ap, p)
			pap = kern.dotAcc(p, ap, 0)
		}
		if pap <= 0 {
			// Defensive: cannot happen for an SPD operator unless the
			// residual is at rounding level.
			return nil
		}
		alpha := rr / pap
		rrNew := kern.step(x, res, p, ap, alpha)
		update, beta = true, rrNew/rr
		rr = rrNew
	}
	if math.Sqrt(rr) <= tol {
		return nil
	}
	return ErrNoConvergence
}

// kernels are the per-element loops of a CG iteration (see Kernels above).
type kernels struct {
	// stencilRow writes one row of A·p (stencilRowGo).
	stencilRow func(out, row, up, dn []float64, r, diag float64)
	// search is pass 1 on the one-strip engine (searchGo).
	search func(ap, p, res []float64, n int, r, diag float64, update bool, beta float64) float64
	// updateDirection sets p ← res + βp.
	updateDirection func(p, res []float64, beta float64)
	// dotAcc returns acc + Σ a[i]·b[i].
	dotAcc func(a, b []float64, acc float64) float64
	// step is pass 2: x += α·p, res −= α·ap, and the new r·r.
	step func(x, res, p, ap []float64, alpha float64) float64
	// residual sets res = p = rhs − ap and returns r·r and rhs·rhs.
	residual func(res, p, rhs, ap []float64) (rr, bb float64)
}

// portable is the Go statement of every kernel; kern is the set in use,
// replaced at init where the CPU has a faster one (cg_amd64.go).
var (
	portable = kernels{stencilRowGo, searchGo, updateDirectionGo, dotAccGo, stepGo, residualGo}
	kern     = portable
)

// searchGo is pass 1 on the one-strip engine: p ← res + βp if update,
// ap = A·p and the returned p·ap, one row at a time with row i+1 of p
// updated just before row i of ap is evaluated.
func searchGo(ap, p, res []float64, n int, r, diag float64, update bool, beta float64) float64 {
	if update {
		updateDirectionGo(p[:n], res[:n], beta)
	}
	var pap float64
	for i := 0; i < n; i++ {
		lo, hi := i*n, (i+1)*n
		var up, dn []float64
		if i > 0 {
			up = p[lo-n : lo]
		}
		if i < n-1 {
			dn = p[hi : hi+n]
			if update {
				updateDirectionGo(dn, res[hi:hi+n], beta)
			}
		}
		pap = stencilDotRowGo(ap[lo:hi], p[lo:hi], up, dn, r, diag, pap)
	}
	return pap
}

// stencilDotRowGo is stencilRowGo and then dotAccGo(row, out, acc), in one
// loop for a row with both neighbours (so n ≥ 3 on a square grid).
func stencilDotRowGo(out, row, up, dn []float64, r, diag, acc float64) float64 {
	if up == nil || dn == nil {
		stencilRowGo(out, row, up, dn, r, diag)
		return dotAccGo(row, out, acc)
	}
	n := len(row)
	out, up, dn = out[:n], up[:n], dn[:n]
	v := float64(diag*row[0]) - float64(r*row[1]) - float64(r*up[0]) - float64(r*dn[0])
	out[0] = v
	acc += float64(row[0] * v)
	// Interior columns: the element k+1 of the row, its two neighbours in
	// the row and the two across, as slices of one length.
	c := row[1 : n-1]
	w, east, u, d, o := row[:len(c)], row[2:2+len(c)], up[1:1+len(c)], dn[1:1+len(c)], out[1:1+len(c)]
	for k, ck := range c {
		v = float64(diag*ck) - float64(r*w[k]) - float64(r*east[k]) - float64(r*u[k]) - float64(r*d[k])
		o[k] = v
		acc += float64(ck * v)
	}
	v = float64(diag*row[n-1]) - float64(r*row[n-2]) - float64(r*up[n-1]) - float64(r*dn[n-1])
	out[n-1] = v
	return acc + float64(row[n-1]*v)
}

func updateDirectionGo(p, res []float64, beta float64) {
	res = res[:len(p)]
	for i, v := range p {
		p[i] = res[i] + float64(beta*v)
	}
}

// dotAccGo adds the products in index order.
func dotAccGo(a, b []float64, acc float64) float64 {
	b = b[:len(a)]
	for i, v := range a {
		acc += float64(v * b[i])
	}
	return acc
}

func stepGo(x, res, p, ap []float64, alpha float64) float64 {
	res, p, ap = res[:len(x)], p[:len(x)], ap[:len(x)]
	var rr float64
	for i := range x {
		x[i] += float64(alpha * p[i])
		ri := res[i] - float64(alpha*ap[i])
		res[i] = ri
		rr += float64(ri * ri)
	}
	return rr
}

func residualGo(res, p, rhs, ap []float64) (rr, bb float64) {
	p, rhs, ap = p[:len(res)], rhs[:len(res)], ap[:len(res)]
	for i, b := range rhs {
		ri := b - ap[i]
		res[i] = ri
		p[i] = ri
		rr += float64(ri * ri)
		bb += float64(b * b)
	}
	return rr, bb
}
