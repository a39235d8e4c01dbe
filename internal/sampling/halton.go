package sampling

// Halton generates the deterministic low-discrepancy Halton sequence, using
// the first d primes as bases. The sequence covers the design space far
// more evenly than i.i.d. sampling for the moderate dimensionalities of
// simulation parameter studies (d=5 in the paper's heat-equation setup).
type Halton struct {
	dim   int
	bases []int
	index int
}

// NewHalton builds a Halton sampler of the given dimension. The index
// starts at 1 (the 0th Halton point is the origin, which is degenerate).
func NewHalton(dim int) *Halton {
	return &Halton{dim: dim, bases: firstPrimes(dim), index: 1}
}

// Next implements Sampler.
func (h *Halton) Next() []float64 {
	p := make([]float64, h.dim)
	for i, base := range h.bases {
		p[i] = radicalInverse(h.index, base)
	}
	h.index++
	return p
}

// radicalInverse reflects the base-b digits of n about the radix point:
// the van der Corput sequence underlying Halton.
func radicalInverse(n, base int) float64 {
	inv := 1.0 / float64(base)
	var result float64
	f := inv
	for n > 0 {
		result += float64(n%base) * f
		n /= base
		f *= inv
	}
	return result
}

// firstPrimes returns the first n primes by trial division; n is tiny
// (the design dimensionality).
func firstPrimes(n int) []int {
	primes := make([]int, 0, n)
	for candidate := 2; len(primes) < n; candidate++ {
		isPrime := true
		for _, p := range primes {
			if p*p > candidate {
				break
			}
			if candidate%p == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			primes = append(primes, candidate)
		}
	}
	return primes
}
