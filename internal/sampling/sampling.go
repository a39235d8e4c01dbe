// Package sampling implements the experimental designs the framework's
// data-aggregator uses to draw simulation parameters X for each client
// (§3.1): traditional Monte Carlo, Latin hypercube, and the Halton
// sequence.
//
// Samplers produce points in the unit hypercube [0,1)^d; a Space maps them
// to physical parameter ranges (the paper samples the five temperatures in
// [100, 500] K).
package sampling

import (
	"fmt"
	"math/rand/v2"
)

// Sampler generates a stream of design points in [0,1)^d.
type Sampler interface {
	// Next returns the next point. The returned slice is owned by the
	// caller.
	Next() []float64
}

// Space is a box of physical parameter ranges.
type Space struct {
	Min []float64
	Max []float64
}

// NewSpace builds a Space; Min and Max must have equal lengths with
// Min[i] ≤ Max[i].
func NewSpace(min, max []float64) (Space, error) {
	if len(min) != len(max) {
		return Space{}, fmt.Errorf("sampling: min/max length mismatch %d vs %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Space{}, fmt.Errorf("sampling: min[%d]=%v > max[%d]=%v", i, min[i], i, max[i])
		}
	}
	return Space{Min: min, Max: max}, nil
}

// HeatSpace is the paper's design space: 5 temperature parameters
// (T_IC, T_x1, T_y1, T_x2, T_y2) uniform in [100, 500] K (§4.1).
func HeatSpace() Space {
	min := make([]float64, 5)
	max := make([]float64, 5)
	for i := range min {
		min[i], max[i] = 100, 500
	}
	return Space{Min: min, Max: max}
}

// GrayScottSpace is the design space of the Gray–Scott reaction–diffusion
// scenario: feed rate F, kill rate k, and the two diffusion coefficients,
// bounded to the patterned regime of the (F, k) plane and to explicitly
// stable diffusion at Δt = 1.
func GrayScottSpace() Space {
	return Space{
		Min: []float64{0.010, 0.045, 0.08, 0.04},
		Max: []float64{0.070, 0.065, 0.20, 0.10},
	}
}

// Dim returns the space dimensionality.
func (s Space) Dim() int { return len(s.Min) }

// Scale maps a unit-cube point to the physical box.
func (s Space) Scale(u []float64) []float64 {
	if len(u) != s.Dim() {
		panic(fmt.Sprintf("sampling: point dim %d != space dim %d", len(u), s.Dim()))
	}
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = s.Min[i] + v*(s.Max[i]-s.Min[i])
	}
	return out
}

// Kind names an experimental design method.
type Kind string

// Supported designs (§3.1: "Methods currently supported to draw the
// parameters X for each client include the traditional Monte Carlo method,
// Latin hypercube and Halton sequence").
const (
	MonteCarloKind     Kind = "monte-carlo"
	LatinHypercubeKind Kind = "latin-hypercube"
	HaltonKind         Kind = "halton"
)

// New constructs a sampler by kind. blockSize is the stratification block
// for Latin hypercube designs (ignored otherwise; defaults to 64).
func New(kind Kind, dim int, seed uint64, blockSize int) (Sampler, error) {
	switch kind {
	case MonteCarloKind:
		return NewMonteCarlo(dim, seed), nil
	case LatinHypercubeKind:
		if blockSize <= 0 {
			blockSize = 64
		}
		return NewLatinHypercube(dim, blockSize, seed), nil
	case HaltonKind:
		return NewHalton(dim), nil
	default:
		return nil, fmt.Errorf("sampling: unknown design %q", kind)
	}
}

// MonteCarlo draws i.i.d. uniform points from a seeded stream.
type MonteCarlo struct {
	dim int
	rng *rand.Rand
}

// NewMonteCarlo builds a Monte Carlo sampler.
func NewMonteCarlo(dim int, seed uint64) *MonteCarlo {
	return &MonteCarlo{dim: dim, rng: rand.New(rand.NewPCG(seed, seed^0xb5297a4d3f2c1e07))}
}

// Next implements Sampler.
func (m *MonteCarlo) Next() []float64 {
	p := make([]float64, m.dim)
	for i := range p {
		p[i] = m.rng.Float64()
	}
	return p
}
