package sampling

import "math/rand/v2"

// LatinHypercube generates stratified designs: within each block of n
// consecutive points, every dimension's n strata [k/n, (k+1)/n) each
// contain exactly one point, with the strata pairing shuffled independently
// per dimension. When a block is exhausted a fresh one is generated, so the
// sampler serves unbounded streams (the online setting keeps requesting new
// parameters for as long as the training runs).
type LatinHypercube struct {
	dim   int
	n     int
	rng   *rand.Rand
	block [][]float64
	used  int
}

// NewLatinHypercube builds an LHS sampler with blocks of n points.
func NewLatinHypercube(dim, n int, seed uint64) *LatinHypercube {
	if n < 1 {
		n = 1
	}
	return &LatinHypercube{dim: dim, n: n, rng: rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))}
}

// Next implements Sampler.
func (l *LatinHypercube) Next() []float64 {
	if l.block == nil || l.used >= l.n {
		l.generateBlock()
	}
	p := l.block[l.used]
	l.used++
	return p
}

func (l *LatinHypercube) generateBlock() {
	l.block = make([][]float64, l.n)
	for i := range l.block {
		l.block[i] = make([]float64, l.dim)
	}
	perm := make([]int, l.n)
	for d := 0; d < l.dim; d++ {
		for i := range perm {
			perm[i] = i
		}
		l.rng.Shuffle(l.n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < l.n; i++ {
			// One uniform draw within the assigned stratum.
			l.block[i][d] = (float64(perm[i]) + l.rng.Float64()) / float64(l.n)
		}
	}
	l.used = 0
}
