package nn

import (
	"fmt"

	"melissa/internal/tensor"
)

// Dense is a fully connected layer computing y = act(x·W + b) for a batch x
// of shape [batch, in]. W has shape [in, out], b broadcasts across the
// batch, and act is an optional fused activation: forward runs as a single
// blocked GEMM whose epilogue applies bias and activation per cache-hot
// output tile, and backward folds dZ = dY ⊙ act′ and the bias gradient into
// one elementwise sweep before the two gradient GEMMs.
type Dense struct {
	name string
	w, b *Param
	act  Activation
	team *tensor.Team // the cores forward and backward may fan out over; nil runs inline

	lastX *tensor.Matrix // input recorded by Forward for the weight gradient
	lastY *tensor.Matrix // output recorded by Forward for the fused act′
	out   scratch        // output activations
	dx    scratch        // input gradients
	dz    scratch        // pre-activation gradients (fused act only)
}

// NewDense creates a linear Dense layer (no activation) with Xavier-uniform
// weights drawn from init and zero biases.
func NewDense(name string, in, out int, init *Initializer) *Dense {
	return NewDenseAct(name, in, out, ActNone, init)
}

// NewDenseAct creates a Dense layer with a fused activation epilogue.
func NewDenseAct(name string, in, out int, act Activation, init *Initializer) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense dims %dx%d", in, out))
	}
	w := tensor.New(in, out)
	init.XavierUniform(w, in, out)
	return &Dense{
		name: name,
		w:    &Param{Name: name + ".weight", Value: w, Grad: tensor.New(in, out)},
		b:    &Param{Name: name + ".bias", Value: tensor.New(1, out), Grad: tensor.New(1, out)},
		act:  act,
	}
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.w.Value.Rows }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.w.Value.Cols }

// Activation returns the fused activation applied by Forward.
func (d *Dense) Activation() Activation { return d.act }

// Forward implements Layer: one GEMM with the bias (and activation, if any)
// fused into the epilogue.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In() {
		panic(fmt.Sprintf("nn: %s forward got %d features, want %d", d.name, x.Cols, d.In()))
	}
	d.lastX = x
	out := d.out.get(x.Rows, d.Out())
	ep := tensor.EpBias
	switch d.act {
	case ActReLU:
		ep = tensor.EpBiasReLU
	case ActTanh:
		ep = tensor.EpBiasTanh
	}
	d.team.MatMulEpilogue(out, x, d.w.Value, d.b.Value.Data, ep)
	d.lastY = out
	return out
}

// Backward implements Layer: dZ = dY ⊙ act′ fused with db += Σ_batch dZ,
// then dW += xᵀ·dZ and dx = dZ·Wᵀ.
func (d *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if d.lastX == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	dz := dy
	if d.act != ActNone {
		dz = d.dz.get(dy.Rows, dy.Cols)
		actGradBiasSum(d.act, dz, dy, d.lastY, d.b.Grad.Data)
	} else {
		dy.SumRowsInto(d.b.Grad.Data)
	}
	d.team.MatMulATBAdd(d.w.Grad, d.lastX, dz)
	dx := d.dx.get(dy.Rows, d.In())
	d.team.MatMulABT(dx, dz, d.w.Value)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// CloneShared returns a copy aliasing this layer's weight and bias storage
// (no copy; the Param headers are its own, so Network.CloneReplica can give
// it private gradients) with private forward/backward scratch and no team.
// See Network.CloneShared for the safety contract.
func (d *Dense) CloneShared() Layer {
	w, b := *d.w, *d.b
	return &Dense{name: d.name, w: &w, b: &b, act: d.act}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		name: d.name,
		w:    &Param{Name: d.w.Name, Value: d.w.Value.Clone(), Grad: tensor.New(d.In(), d.Out())},
		b:    &Param{Name: d.b.Name, Value: d.b.Value.Clone(), Grad: tensor.New(1, d.Out())},
		act:  d.act,
	}
}
