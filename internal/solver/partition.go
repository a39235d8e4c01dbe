package solver

import "sync"

// engine evaluates the implicit operator A = (1+4r)·I − r·S with the field
// partitioned into horizontal strips, one per worker. Strip workers only
// read their own rows plus one halo row from each neighbour, received over
// channels — the shared-memory analogue of the paper's MPI 2D domain
// partitioning (§4.1). The interior stencil never reads across a strip
// except through the exchanged halos, so the structure would port directly
// to distributed memory.
type engine struct {
	n       int
	r, diag float64 // diag is A's diagonal, 1+4r
	strips  []strip
}

// strip is one worker's share of rows [r0, r1) plus halo plumbing. upCh
// receives the neighbour row r0−1; downCh receives row r1.
type strip struct {
	r0, r1 int
	upCh   chan []float64
	downCh chan []float64
	haloUp []float64
	haloDn []float64
}

func newEngine(n, workers int, r float64) *engine {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	e := &engine{n: n, r: r, diag: 1 + float64(4*r), strips: make([]strip, workers)}
	base, rem := n/workers, n%workers
	row := 0
	for w := range e.strips {
		rows := base
		if w < rem {
			rows++
		}
		e.strips[w] = strip{
			r0:     row,
			r1:     row + rows,
			upCh:   make(chan []float64, 1),
			downCh: make(chan []float64, 1),
			haloUp: make([]float64, n),
			haloDn: make([]float64, n),
		}
		row += rows
	}
	return e
}

// apply computes dst = A·src. All workers first publish their boundary rows
// to neighbours, then receive halos, then compute their strip — a classic
// BSP halo-exchange superstep. With one strip there is nothing to exchange.
func (e *engine) apply(dst, src []float64) {
	if len(e.strips) == 1 {
		e.applyStrip(dst, src, &e.strips[0], nil, nil)
		return
	}
	var wg sync.WaitGroup
	for w := range e.strips {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &e.strips[w]
			n := e.n
			// Publish boundary rows into the neighbours' halo buffers.
			// Copies keep the message semantics of a real halo exchange:
			// the receiver never aliases the sender's memory. A buffer is
			// free again by the next call, whose sends start only after
			// every strip of this one has returned.
			if w > 0 {
				top := e.strips[w-1].haloDn
				copy(top, src[s.r0*n:(s.r0+1)*n])
				e.strips[w-1].downCh <- top
			}
			if w < len(e.strips)-1 {
				bottom := e.strips[w+1].haloUp
				copy(bottom, src[(s.r1-1)*n:s.r1*n])
				e.strips[w+1].upCh <- bottom
			}
			var haloUp, haloDn []float64
			if w > 0 {
				haloUp = <-s.upCh
			}
			if w < len(e.strips)-1 {
				haloDn = <-s.downCh
			}
			e.applyStrip(dst, src, s, haloUp, haloDn)
		}(w)
	}
	wg.Wait()
}

// applyStrip evaluates rows [s.r0, s.r1). haloUp/haloDn supply rows r0−1
// and r1 when they belong to another strip; nil means the row is either a
// physical boundary (its Dirichlet contribution lives in the RHS, not in A)
// or owned by this strip.
func (e *engine) applyStrip(dst, src []float64, s *strip, haloUp, haloDn []float64) {
	n := e.n
	for i := s.r0; i < s.r1; i++ {
		up, dn := haloUp, haloDn
		if i > s.r0 {
			up = src[(i-1)*n : i*n]
		}
		if i < s.r1-1 {
			dn = src[(i+1)*n : (i+2)*n]
		}
		kern.stencilRow(dst[i*n:(i+1)*n], src[i*n:(i+1)*n], up, dn, e.r, e.diag)
	}
}

// stencilRowGo writes one row of A·src into out: row is that row of src,
// up and dn the rows above and below it, nil at a physical edge. Every
// element is diag·row[j] − r·row[j−1] − r·row[j+1] − r·up[j] − r·dn[j],
// diag = 1+4r, the absent terms left out, evaluated left to right with each
// product rounded on its own (the float64 conversions forbid fusing it into
// the subtraction, which Go may otherwise do on FMA targets).
// stencilDotRowGo evaluates the same expression, in one loop, on rows that
// have both neighbours.
func stencilRowGo(out, row, up, dn []float64, r, diag float64) {
	n := len(row)
	out = out[:n]
	if n == 1 {
		out[0] = float64(diag * row[0])
	} else {
		out[0] = float64(diag*row[0]) - float64(r*row[1])
		c := row[1 : n-1]
		w, east, o := row[:len(c)], row[2:2+len(c)], out[1:1+len(c)]
		for k, ck := range c {
			o[k] = float64(diag*ck) - float64(r*w[k]) - float64(r*east[k])
		}
		out[n-1] = float64(diag*row[n-1]) - float64(r*row[n-2])
	}
	if up != nil {
		up = up[:n]
		for j := range out {
			out[j] -= float64(r * up[j])
		}
	}
	if dn != nil {
		dn = dn[:n]
		for j := range out {
			out[j] -= float64(r * dn[j])
		}
	}
}
