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
// Every Network keeps its parameters in contiguous float32 slabs — one for
// values, one for gradients — and each Param's matrices are zero-copy views
// into them (in Params() order). An MLP is built in its slabs: the builder
// sizes the whole network, allocates each slab once and lays every layer's
// weight and bias out as views, so nothing is allocated twice or copied
// (only NewNetwork over ready-made layers, as Clone does, packs them by
// copying). FlatParams and FlatGrads expose the slabs, which is what makes
// the training hot path allocation-free: the ddp layer all-reduces the
// gradient slab directly with no gather/scatter staging, optimizers update
// the value slab in one fused vectorized pass, ZeroGrad is a single memclr,
// and checkpoints serialize the value slab as one bulk stream.
//
// Only a network that trains has a gradient slab. LoadMLP builds the
// inference-only network a checkpoint describes and reads the weights
// straight into its value slab; it never draws an initial weight and never
// allocates gradients, and a trained network sheds its own with
// ReleaseGrads when it becomes a surrogate.
//
// The value slab may be shared, the gradient slab never is. The training
// replicas of one process (CloneReplica) and the serving replicas of one
// surrogate (CloneShared) all read a single value slab; every training
// replica accumulates into a gradient slab of its own, which is the buffer
// it hands to the all-reduce.
package nn

import (
	"bufio"
	"fmt"
	"io"

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

	params      []*Param  // cached stable order, set by fuse or newMLP
	flatValues  []float32 // contiguous backing of every Param.Value
	flatGrads   []float32 // contiguous backing of every Param.Grad; nil when the network does not train
	layerRanges [][2]int  // per-layer [lo,hi) slab ranges, set by fuse or newMLP
}

// NewNetwork assembles a sequential network from ready-made layers and
// copies their parameters into flat slabs (see fuse).
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

// ReleaseGrads drops the gradient slab and the activations training and
// validation left in the layers, leaving an inference-only network half the
// size: Forward, the weight accessors and serialization work as before
// (Forward sizes its activations anew), FlatGrads returns nil, and Backward
// or ZeroGrad panic. A trained network is released when it becomes a
// Surrogate.
func (n *Network) ReleaseGrads() {
	for _, p := range n.Params() {
		p.Grad = nil
	}
	n.flatGrads = nil
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			d.lastX, d.lastY = nil, nil
			d.out, d.dx, d.dz = scratch{}, scratch{}, scratch{}
		}
	}
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
// parameter gradients (its GradBuckets range) are final for this
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

// ArchitectureMLP builds the paper's direct surrogate architecture: an
// input layer of inputDim neurons (the 5 temperature parameters plus the
// time step), hidden ReLU layers, and a linear output producing the
// flattened temperature field. Each hidden layer is a single fused
// Dense+ReLU (activation applied in the GEMM epilogue), so the network has
// one layer per weight matrix; parameter names, shapes and order are
// unchanged from the unfused structure, and existing weight checkpoints
// load as before. Weights are Xavier-initialized from the seeded rng stream
// so runs are reproducible (§3.1: "all the stochastic components … are
// seeded"); biases start at zero.
func ArchitectureMLP(inputDim int, hidden []int, outputDim int, seed uint64) *Network {
	n, err := newMLP(inputDim, hidden, outputDim, NewInitializer(seed))
	if err != nil {
		panic(err)
	}
	return n
}

// LoadMLP builds the inference-only ArchitectureMLP inputDim → hidden... →
// outputDim and reads its weights from r, which must hold what SaveWeights
// wrote for that architecture. The weights are decoded straight into the
// value slab; the network has no gradient slab (FlatGrads is nil, Backward
// and ZeroGrad panic). A width below 1 is an error. Callers that take the
// widths from untrusted input bound them first: the value slab is allocated
// before r is read.
func LoadMLP(r io.Reader, inputDim int, hidden []int, outputDim int) (*Network, error) {
	n, err := newMLP(inputDim, hidden, outputDim, nil)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	if err := n.readHeader(br); err != nil {
		return nil, err
	}
	if err := readF32s(br, n.flatValues); err != nil {
		return nil, fmt.Errorf("nn: reading weights: %w", err)
	}
	return n, nil
}

// newMLP sizes the MLP in → hidden... → out, allocates its value slab — and,
// with an initializer, its gradient slab — once, and lays each Dense layer's
// weight and bias out as views into them in Params() order. init draws the
// weights straight into their views, layer by layer, in the order separate
// layers once drew them, so a seed gives the same bits; a nil init leaves
// every value zero for a loader to fill and builds no gradient slab.
func newMLP(in int, hidden []int, out int, init *Initializer) (*Network, error) {
	widths := append(append([]int{in}, hidden...), out)
	total := 0
	for i := 1; i < len(widths); i++ {
		if widths[i-1] <= 0 || widths[i] <= 0 {
			return nil, fmt.Errorf("nn: invalid Dense dims %dx%d", widths[i-1], widths[i])
		}
		total += (widths[i-1] + 1) * widths[i]
	}
	n := &Network{
		Layers:      make([]Layer, 0, len(hidden)+1),
		params:      make([]*Param, 0, 2*len(hidden)+2),
		flatValues:  make([]float32, total),
		layerRanges: make([][2]int, len(hidden)+1),
	}
	if init != nil {
		n.flatGrads = make([]float32, total)
	}
	off := 0
	param := func(name string, rows, cols int) *Param {
		sz := rows * cols
		p := &Param{Name: name, Value: &tensor.Matrix{Rows: rows, Cols: cols, Data: n.flatValues[off : off+sz : off+sz]}}
		if n.flatGrads != nil {
			p.Grad = &tensor.Matrix{Rows: rows, Cols: cols, Data: n.flatGrads[off : off+sz : off+sz]}
		}
		off += sz
		n.params = append(n.params, p)
		return p
	}
	for i := range n.layerRanges {
		fanIn, fanOut := widths[i], widths[i+1]
		name, act := "output", ActNone
		if i < len(hidden) {
			name, act = fmt.Sprintf("hidden%d", i), ActReLU
		}
		lo := off
		d := &Dense{name: name, act: act, w: param(name+".weight", fanIn, fanOut), b: param(name+".bias", 1, fanOut)}
		if init != nil {
			init.XavierUniform(d.w.Value, fanIn, fanOut)
		}
		n.layerRanges[i] = [2]int{lo, off}
		n.Layers = append(n.Layers, d)
	}
	return n, nil
}
