package nn

import (
	"math"

	"melissa/internal/tensor"
)

// Activation selects the nonlinearity a Dense layer fuses into its GEMM
// epilogue (tensor.MatMulBias*). The fused path computes act(x·W + b) in
// one pass while each output tile is cache-hot, and the backward pass folds
// dZ = dY ⊙ act′ together with the bias gradient into a single sweep —
// replacing the separate full-matrix passes the standalone activation
// layers cost.
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

// ReLU is the rectified linear activation used by the paper's surrogate
// (§4.1: "2 hidden layers of 256 neurons with ReLU activation"). As a
// standalone layer it exists for hand-assembled networks and as the
// reference for the fused Dense epilogue path; ArchitectureMLP now builds
// fused layers instead.
type ReLU struct {
	lastX *tensor.Matrix
	out   scratch
	dx    scratch
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.lastX = x
	out := r.out.get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer: the gradient passes only where the input was
// strictly positive.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if r.lastX == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	dx := r.dx.get(dy.Rows, dy.Cols)
	for i, v := range r.lastX.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return NewReLU() }

// Tanh is a hyperbolic-tangent activation, provided for surrogate variants
// that prefer smooth activations (e.g. PINN-style direct models).
type Tanh struct {
	lastOut *tensor.Matrix // output recorded by Forward for the derivative
	out     scratch
	dx      scratch
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := t.out.get(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	t.lastOut = out
	return out
}

// Backward implements Layer: d tanh(x)/dx = 1 − tanh(x)².
func (t *Tanh) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if t.lastOut == nil {
		panic("nn: Tanh.Backward called before Forward")
	}
	dx := t.dx.get(dy.Rows, dy.Cols)
	for i, y := range t.lastOut.Data {
		dx.Data[i] = dy.Data[i] * (1 - y*y)
	}
	return dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Clone implements Layer.
func (t *Tanh) Clone() Layer { return NewTanh() }
