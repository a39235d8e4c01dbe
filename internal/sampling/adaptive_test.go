package sampling

import "math/rand/v2"

// Adaptive implements the paper's future-work direction (§5): "adaptive
// training where the next set of clients to run is defined online according
// to the current training status". It wraps a base design with an
// acquisition rule: each draw proposes several candidate points and keeps
// the one scoring highest under a caller-supplied criterion — typically the
// surrogate's current validation error near the point — while an ε fraction
// of draws remain pure exploration to keep the design space covered.
type Adaptive struct {
	base       Sampler
	score      func(p []float64) float64
	candidates int
	epsilon    float64
	rng        *rand.Rand
}

// NewAdaptive builds an adaptive sampler. candidates is the number of
// proposals scored per draw (≥1); epsilon in [0,1] is the exploration
// fraction; score maps a unit-cube point to a priority (higher = more
// useful to simulate next).
func NewAdaptive(base Sampler, candidates int, epsilon float64, seed uint64, score func(p []float64) float64) *Adaptive {
	if candidates < 1 {
		candidates = 1
	}
	if epsilon < 0 {
		epsilon = 0
	}
	if epsilon > 1 {
		epsilon = 1
	}
	return &Adaptive{
		base:       base,
		score:      score,
		candidates: candidates,
		epsilon:    epsilon,
		rng:        rand.New(rand.NewPCG(seed, seed^0x3c6ef372fe94f82b)),
	}
}

// Next implements Sampler.
func (a *Adaptive) Next() []float64 {
	if a.score == nil || a.candidates == 1 || a.rng.Float64() < a.epsilon {
		return a.base.Next()
	}
	best := a.base.Next()
	bestScore := a.score(best)
	for i := 1; i < a.candidates; i++ {
		p := a.base.Next()
		if s := a.score(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}
