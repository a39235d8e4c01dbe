package nn

import (
	"math"
	"math/rand/v2"

	"melissa/internal/tensor"
)

// Initializer draws initial weights from a seeded PCG stream so that a
// given seed always produces byte-identical networks — one of the paper's
// reproducibility requirements (§3.1).
type Initializer struct {
	rng *rand.Rand
}

// NewInitializer creates an Initializer seeded with seed.
func NewInitializer(seed uint64) *Initializer {
	return &Initializer{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// XavierUniform fills m with samples from U(−a, a) where
// a = sqrt(6/(fanIn+fanOut)), the Glorot initialization PyTorch applies to
// linear layers driving ReLU stacks of this depth.
func (in *Initializer) XavierUniform(m *tensor.Matrix, fanIn, fanOut int) {
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = float32((in.rng.Float64()*2 - 1) * a)
	}
}
