package nn

import "melissa/internal/tensor"

// Activation selects the nonlinearity a Dense layer fuses into its GEMM
// epilogue (tensor.EpBiasReLU, tensor.EpBiasTanh). The fused path computes
// act(x·W + b) in one pass while each output tile is cache-hot, and the
// backward pass folds dZ = dY ⊙ act′ together with the bias gradient into a
// single sweep — no separate full-matrix activation pass.
type Activation uint8

const (
	ActNone Activation = iota
	ActReLU
	ActTanh
)

// actGradBiasSum performs the fused backward elementwise pass: it writes
// dz = dy ⊙ act′ evaluated from the recorded activation *output* y (for
// ReLU the mask y > 0 equals z > 0; for tanh, act′ = 1 − y²) and
// accumulates the bias gradient Σ_batch dz into bgrad in the same sweep.
// With ActNone dz just aliases dy conceptually; callers skip the call.
func actGradBiasSum(act Activation, dz, dy, y *tensor.Matrix, bgrad []float32) {
	cols := dy.Cols
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		yr := y.Row(r)
		dzr := dz.Row(r)
		switch act {
		case ActReLU:
			tensor.ReLUGradBias(dzr, dyr, yr, bgrad)
		case ActTanh:
			for c := 0; c < cols; c++ {
				g := dyr[c] * (1 - yr[c]*yr[c])
				dzr[c] = g
				bgrad[c] += g
			}
		}
	}
}
