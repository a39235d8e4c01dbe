package nn

import (
	"fmt"

	"melissa/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b, or relu of it,
// for a batch x of shape [batch, in]. W has shape [in, out] and b
// broadcasts across the batch. Forward runs as a single blocked GEMM whose
// epilogue applies bias and ReLU per cache-hot output tile, and backward
// folds dZ = dY ⊙ relu′ and the bias gradient into one elementwise sweep
// before the two gradient GEMMs. A layer records what its Backward needs,
// so it is not safe for concurrent use: every replica has layers of its own
// (see Network.CloneShared and Network.CloneReplica).
type Dense struct {
	name string
	w, b *Param
	relu bool         // fuse ReLU into the epilogue (hidden layers)
	team *tensor.Team // the cores forward and backward may fan out over; nil runs inline

	lastX *tensor.Matrix // input recorded by Forward for the weight gradient
	lastY *tensor.Matrix // output recorded by Forward for relu′
	out   scratch        // output activations
	dx    scratch        // input gradients
	dz    scratch        // pre-activation gradients (ReLU layers only)
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.w.Value.Rows }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.w.Value.Cols }

// Forward computes the layer output for a batch (rows = samples): one GEMM
// with the bias (and ReLU, if any) fused into the epilogue.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In() {
		panic(fmt.Sprintf("nn: %s forward got %d features, want %d", d.name, x.Cols, d.In()))
	}
	d.lastX = x
	out := d.out.get(x.Rows, d.Out())
	ep := tensor.EpBias
	if d.relu {
		ep = tensor.EpBiasReLU
	}
	d.team.MatMulEpilogue(out, x, d.w.Value, d.b.Value.Data, ep)
	d.lastY = out
	return out
}

// Backward propagates the loss gradient dy of the last Forward and returns
// dx: dZ = dY ⊙ relu′ fused with db += Σ_batch dZ (relu′ read from the
// recorded output: y > 0 exactly where z > 0), then dW += xᵀ·dZ and
// dx = dZ·Wᵀ. It must be called exactly once per Forward.
func (d *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if d.lastX == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	dz := dy
	if d.relu {
		dz = d.dz.get(dy.Rows, dy.Cols)
		for r := 0; r < dy.Rows; r++ {
			tensor.ReLUGradBias(dz.Row(r), dy.Row(r), d.lastY.Row(r), d.b.Grad.Data)
		}
	} else {
		dy.SumRowsInto(d.b.Grad.Data)
	}
	d.team.MatMulATBAdd(d.w.Grad, d.lastX, dz)
	dx := d.dx.get(dy.Rows, d.In())
	d.team.MatMulABT(dx, dz, d.w.Value)
	return dx
}
