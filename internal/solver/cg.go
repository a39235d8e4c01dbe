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
// stencilRow defines, both dot products add their terms one by one in index
// order, and every product is rounded by a float64 conversion before it is
// added, so no target contracts it into an FMA: the fields are the same
// bits on either engine and at any worker count (TestParallelMatchesSequential,
// FuzzSolverStrips), and those of the textbook loop evaluated one rounded
// operation at a time.
func (s *Simulation) solveCG() error {
	x := s.u
	p, res, ap := s.p[:len(x)], s.res[:len(x)], s.ap[:len(x)]
	// res = p = rhs − A·x
	s.eng.apply(ap, x)
	var rr, bb float64
	for i, b := range s.rhs[:len(x)] {
		ri := b - ap[i]
		res[i] = ri
		p[i] = ri
		rr += float64(ri * ri)
		bb += float64(b * b)
	}
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
			pap = s.eng.searchFused(ap, p, res, update, beta)
		} else {
			if update {
				updateDirection(p, res, beta)
			}
			s.eng.apply(ap, p)
			pap = dotAcc(p, ap, 0)
		}
		if pap <= 0 {
			// Defensive: cannot happen for an SPD operator unless the
			// residual is at rounding level.
			return nil
		}
		alpha := rr / pap
		// Pass 2.
		var rrNew float64
		for i := range x {
			x[i] += float64(alpha * p[i])
			ri := res[i] - float64(alpha*ap[i])
			res[i] = ri
			rrNew += float64(ri * ri)
		}
		update, beta = true, rrNew/rr
		rr = rrNew
	}
	if math.Sqrt(rr) <= tol {
		return nil
	}
	return ErrNoConvergence
}

// searchFused is pass 1 on the one-strip engine: p ← res + βp if update,
// ap = A·p and the returned p·ap, one row at a time with row i+1 of p
// updated just before row i of ap is evaluated.
func (e *engine) searchFused(ap, p, res []float64, update bool, beta float64) float64 {
	n := e.n
	if update {
		updateDirection(p[:n], res[:n], beta)
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
				updateDirection(dn, res[hi:hi+n], beta)
			}
		}
		row, out := p[lo:hi], ap[lo:hi]
		if up != nil && dn != nil {
			pap = e.stencilDotRow(out, row, up, dn, pap)
			continue
		}
		e.stencilRow(out, row, up, dn)
		pap = dotAcc(row, out, pap)
	}
	return pap
}

// stencilDotRow is stencilRow for a row with both neighbours (so n ≥ 3),
// in one loop that also continues the serial sum acc + Σ row[j]·out[j].
func (e *engine) stencilDotRow(out, row, up, dn []float64, acc float64) float64 {
	r, diag := e.r, e.diag()
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

// updateDirection sets p ← res + βp.
func updateDirection(p, res []float64, beta float64) {
	res = res[:len(p)]
	for i, v := range p {
		p[i] = res[i] + float64(beta*v)
	}
}

// dotAcc returns acc + Σ a[i]·b[i], added in index order.
func dotAcc(a, b []float64, acc float64) float64 {
	b = b[:len(a)]
	for i, v := range a {
		acc += float64(v * b[i])
	}
	return acc
}
