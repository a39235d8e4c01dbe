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
// before the one GEMM it runs, dX = dZ·Wᵀ; the weight gradient xᵀ·dZ it
// keeps as its two factors (WeightFactors). A layer records what its
// Backward needs, so it is not safe for concurrent use: every replica has
// layers of its own (see Network.CloneShared and Network.CloneReplica).
type Dense struct {
	name string
	w, b *Param
	relu bool         // fuse ReLU into the epilogue (hidden layers)
	team *tensor.Team // the cores forward and backward may fan out over; nil runs inline

	lastX *tensor.Matrix // input recorded by Forward for the weight gradient
	lastY *tensor.Matrix // output recorded by Forward for relu′
	// gx and gdz are the weight gradient of the last Backward as its
	// factors, x and dZ; zero rows before the first and after ZeroGrad.
	gx, gdz tensor.Matrix
	out     scratch // output activations
	dx      scratch // input gradients
	dz      scratch // pre-activation gradients (ReLU layers only)
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
// recorded output: y > 0 exactly where z > 0), then dx = dZ·Wᵀ. The weight
// gradient xᵀ·dZ is not formed: the layer keeps x and dZ as its factors,
// replacing the previous Backward's, for an optimizer pass that forms it
// element by element (tensor.Team.AdamFactorStep) or for Network.Backward,
// which adds it into the slab. It must be called exactly once per Forward.
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
	d.gx, d.gdz = *d.lastX, *dz
	dx := d.dx.get(dy.Rows, d.In())
	d.team.MatMulABT(dx, dz, d.w.Value)
	return dx
}

// WeightFactors returns the layer's weight gradient as the factors of its
// last Backward: x (batch × in) and dZ (batch × out), whose product xᵀ·dZ
// it is. The two headers are the layer's own and stay the same, so a
// caller may keep them; they describe the last Backward's factors until the
// next one, or zero rows after ZeroGrad. The data is the network's scratch
// and the batch Forward was given, so it holds only until the network's
// next Forward and while that batch is unchanged.
func (d *Dense) WeightFactors() tensor.Factors {
	return tensor.Factors{X: &d.gx, DZ: &d.gdz}
}

// addWeightGrad adds the weight gradient of the last Backward, xᵀ·dZ, into
// the layer's view of the gradient slab (tensor.Team.MatMulATBAdd).
func (d *Dense) addWeightGrad() {
	d.team.MatMulATBAdd(d.w.Grad, &d.gx, &d.gdz)
}

// dropFactors forgets the last Backward's weight gradient.
func (d *Dense) dropFactors() {
	d.gx = tensor.Matrix{Cols: d.In()}
	d.gdz = tensor.Matrix{Cols: d.Out()}
}
