// Package nn implements the neural-network stack used to train deep
// surrogates: dense layers with manual backpropagation, activations, the
// mean-squared-error loss, seeded initialization, and binary serialization
// for checkpoints. The paper's surrogate (§4.1) is a multilayer perceptron
// taking the simulation parameters plus the requested time step and
// producing the full temperature field; ArchitectureMLP builds exactly that
// shape.
//
// # Flat parameter slabs
//
// Every Network fuses its parameters into two contiguous float32 slabs —
// one for values, one for gradients — and each Param's matrices become
// zero-copy views into them (in Params() order). FlatParams and FlatGrads
// expose the slabs, which is what makes the training hot path
// allocation-free: the ddp layer all-reduces the gradient slab directly
// with no gather/scatter staging, optimizers update the value slab in one
// fused vectorized pass, ZeroGrad is a single memclr, and checkpoints
// serialize the value slab as one bulk write.
//
// The value slab may be shared, the gradient slab never is. The training
// replicas of one process (CloneReplica) and the serving replicas of one
// surrogate (CloneShared) all read a single value slab; every training
// replica accumulates into a gradient slab of its own, which is the buffer
// it hands to the all-reduce.
package nn

import (
	"fmt"

	"melissa/internal/tensor"
)

// Param is one learnable parameter tensor together with its gradient
// accumulator. Inside a Network both matrices are views into the network's
// flat slabs, which is what the optimizer and the data-parallel all-reduce
// operate on; Grad is nil once the network's gradients are released.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Size returns the number of scalar elements in the parameter.
func (p *Param) Size() int { return len(p.Value.Data) }

// Layer is a differentiable module. Forward must record whatever it needs
// for the subsequent Backward; Backward accumulates into parameter
// gradients and returns the gradient with respect to its input. Layers are
// stateful and not safe for concurrent use — each data-parallel replica
// owns its own (see CloneReplica).
type Layer interface {
	// Forward computes the layer output for a batch (rows = samples).
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward propagates the loss gradient dy and returns dx. It must be
	// called exactly once per Forward.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns the learnable parameters, empty for stateless layers.
	Params() []*Param
	// Clone returns a deep copy with identical weights and fresh gradients.
	Clone() Layer
}

// Network is a sequential stack of layers whose parameters and gradients
// are backed by two contiguous slabs (see the package comment).
type Network struct {
	Layers []Layer

	params      []*Param  // cached stable order, set by fuse
	flatValues  []float32 // contiguous backing of every Param.Value
	flatGrads   []float32 // contiguous backing of every Param.Grad
	layerRanges [][2]int  // per-layer [lo,hi) slab ranges, set by fuse
}

// NewNetwork assembles a sequential network from layers and fuses the
// parameter storage into flat slabs.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	n.fuse()
	return n
}

// fuse repacks every parameter into the two contiguous slabs, preserving
// current values and gradients, and re-points the Param matrices at slab
// views. Layers keep their *tensor.Matrix pointers, so the swap is
// invisible to forward/backward code.
func (n *Network) fuse() {
	n.params = n.params[:0]
	n.layerRanges = make([][2]int, len(n.Layers))
	total := 0
	for i, l := range n.Layers {
		lo := total
		for _, p := range l.Params() {
			n.params = append(n.params, p)
			total += p.Size()
		}
		n.layerRanges[i] = [2]int{lo, total}
	}
	n.flatValues = make([]float32, total)
	n.flatGrads = make([]float32, total)
	off := 0
	for _, p := range n.params {
		sz := p.Size()
		copy(n.flatValues[off:off+sz], p.Value.Data)
		copy(n.flatGrads[off:off+sz], p.Grad.Data)
		p.Value.Data = n.flatValues[off : off+sz : off+sz]
		p.Grad.Data = n.flatGrads[off : off+sz : off+sz]
		off += sz
	}
}

// FlatParams returns the contiguous slab backing every parameter value, in
// Params() order. Mutating it mutates the network weights.
func (n *Network) FlatParams() []float32 { return n.flatValues }

// FlatGrads returns the contiguous slab backing every parameter gradient,
// in Params() order. The ddp layer all-reduces it directly.
func (n *Network) FlatGrads() []float32 { return n.flatGrads }

// ReleaseGrads drops the gradient slab, leaving an inference-only network
// half the size: Forward, the weight accessors and serialization work as
// before, FlatGrads returns nil, and Backward or ZeroGrad panic. A trained
// network is released when it becomes a Surrogate.
func (n *Network) ReleaseGrads() {
	for _, p := range n.Params() {
		p.Grad = nil
	}
	n.flatGrads = nil
}

// SetTeam lets the network's kernels fan out over tm (nil: inline). A team
// belongs to one goroutine, so only the one that runs this network's
// Forward and Backward may own it; clones and replicas start without one.
func (n *Network) SetTeam(tm *tensor.Team) {
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			d.team = tm
		}
	}
}

// Forward runs the batch x through every layer and returns the output.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dy through the network in reverse, accumulating
// parameter gradients, and returns the gradient w.r.t. the network input.
func (n *Network) Backward(dy *tensor.Matrix) *tensor.Matrix {
	return n.BackwardWithHook(dy, nil)
}

// BackwardWithHook is Backward with a per-layer completion hook: hook(i)
// runs immediately after layer i's Backward, at which point that layer's
// parameter gradients (slab range LayerParamRange(i)) are final for this
// batch — no later Backward call touches them. The trainer uses it to
// launch each gradient bucket's all-reduce while earlier layers are still
// back-propagating. A nil hook makes it plain Backward.
func (n *Network) BackwardWithHook(dy *tensor.Matrix, hook func(layer int)) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
		if hook != nil {
			hook(i)
		}
	}
	return dy
}

// LayerParamRange returns the slab range [lo, hi) backing layer i's
// parameters in FlatParams/FlatGrads order; lo == hi for parameterless
// layers. Only valid on slab-fused networks (built with NewNetwork).
func (n *Network) LayerParamRange(i int) (lo, hi int) {
	r := n.layerRanges[i]
	return r[0], r[1]
}

// GradBucket is one contiguous gradient-slab range owned by a single
// layer, in the order backward finalizes them.
type GradBucket struct {
	Layer  int // index into Layers
	Lo, Hi int // slab range [Lo, Hi)
}

// GradBuckets returns the non-empty per-layer slab ranges in reverse layer
// order — the order Backward finalizes their gradients, and therefore the
// order bucketed-overlap synchronization must launch their collectives.
// Returns nil for networks built without NewNetwork.
func (n *Network) GradBuckets() []GradBucket {
	if n.layerRanges == nil {
		return nil
	}
	buckets := make([]GradBucket, 0, len(n.layerRanges))
	for i := len(n.layerRanges) - 1; i >= 0; i-- {
		if r := n.layerRanges[i]; r[1] > r[0] {
			buckets = append(buckets, GradBucket{Layer: i, Lo: r[0], Hi: r[1]})
		}
	}
	return buckets
}

// Params returns all learnable parameters in a stable order.
func (n *Network) Params() []*Param {
	if n.params == nil && len(n.Layers) > 0 {
		// Network built without NewNetwork; fall back to a dynamic walk.
		var ps []*Param
		for _, l := range n.Layers {
			ps = append(ps, l.Params()...)
		}
		return ps
	}
	return n.params
}

// ZeroGrad clears every parameter gradient — a single memclr of the
// gradient slab. Call before each batch.
func (n *Network) ZeroGrad() {
	if n.flatGrads != nil {
		tensor.Zero(n.flatGrads)
		return
	}
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar learnable parameters.
func (n *Network) NumParams() int {
	if n.flatValues != nil {
		return len(n.flatValues)
	}
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// Clone deep-copies the network (weights copied, gradients zeroed) into its
// own fresh slabs: a snapshot that later training of the original cannot
// touch. (The data-parallel replicas of one process are not copies; see
// CloneReplica.)
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return NewNetwork(layers...)
}

// CloneShared returns an inference-only copy that shares this network's
// parameter storage — no weights are copied — while owning private
// activation scratch, so many replicas can run Forward concurrently against
// one weight slab. The clone is not slab-fused (FlatParams returns nil) and
// must never be trained: Backward would accumulate into the shared gradient
// buffers, and mutating either network's weights while the other runs
// Forward is a data race. Layers that cannot share storage are deep-copied.
func (n *Network) CloneShared() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		if sc, ok := l.(interface{ CloneShared() Layer }); ok {
			layers[i] = sc.CloneShared()
		} else {
			layers[i] = l.Clone()
		}
	}
	// No fuse(): repacking would re-point the shared Params at fresh slabs
	// and break aliasing with (and race against readers of) the original.
	return &Network{Layers: layers}
}

// CloneReplica returns a trainable replica for another data-parallel rank
// of the same process: CloneShared's aliasing of the value slab (FlatParams
// is this network's, so one optimizer update is seen by every replica) plus
// a private gradient slab and private activation scratch. Whoever writes
// the shared values must do so while no replica is in Forward or Backward.
func (n *Network) CloneReplica() *Network {
	r := n.CloneShared()
	r.params = r.Params()
	r.flatValues = n.flatValues
	r.flatGrads = make([]float32, len(n.flatGrads))
	r.layerRanges = n.layerRanges
	off := 0
	for i, p := range r.params {
		if &p.Value.Data[0] != &n.params[i].Value.Data[0] {
			panic(fmt.Sprintf("nn: parameter %q cannot share its storage with a replica", p.Name))
		}
		sz := p.Size()
		p.Grad = &tensor.Matrix{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: r.flatGrads[off : off+sz : off+sz]}
		off += sz
	}
	return r
}

// CopyWeightsFrom overwrites this network's parameter values with src's.
// Shapes must match exactly. When both networks are slab-fused the copy is
// one bulk memmove.
func (n *Network) CopyWeightsFrom(src *Network) error {
	dst, s := n.Params(), src.Params()
	if len(dst) != len(s) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(s))
	}
	for i := range dst {
		if dst[i].Size() != s[i].Size() {
			return fmt.Errorf("nn: parameter %q size mismatch %d vs %d", dst[i].Name, dst[i].Size(), s[i].Size())
		}
	}
	if n.flatValues != nil && src.flatValues != nil && len(n.flatValues) == len(src.flatValues) {
		copy(n.flatValues, src.flatValues)
		return nil
	}
	for i := range dst {
		copy(dst[i].Value.Data, s[i].Value.Data)
	}
	return nil
}

// ArchitectureMLP builds the paper's direct surrogate architecture: an
// input layer of inputDim neurons (the 5 temperature parameters plus the
// time step), hidden ReLU layers, and a linear output producing the
// flattened temperature field. Each hidden layer is a single fused
// Dense+ReLU (activation applied in the GEMM epilogue), so the network has
// one layer per weight matrix; parameter names, shapes and order are
// unchanged from the unfused structure, and existing weight checkpoints
// load as before. Weights are Xavier-initialized from the seeded rng stream
// so runs are reproducible (§3.1: "all the stochastic components … are
// seeded").
func ArchitectureMLP(inputDim int, hidden []int, outputDim int, seed uint64) *Network {
	init := NewInitializer(seed)
	var layers []Layer
	prev := inputDim
	for i, h := range hidden {
		layers = append(layers, NewDenseAct(fmt.Sprintf("hidden%d", i), prev, h, ActReLU, init))
		prev = h
	}
	layers = append(layers, NewDense("output", prev, outputDim, init))
	return NewNetwork(layers...)
}
