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
// into them (in Params() order). One builder makes every Network: given the
// widths, a value slab and an optional gradient slab, it lays each layer's
// weight and bias out as views into them. The constructors differ only in
// the slabs they pass:
//
//   - ArchitectureMLP: fresh values and gradients, with Xavier weights drawn
//     into the views;
//   - LoadMLP: fresh values, decoded straight from a checkpoint, and no
//     gradients;
//   - Clone: a copy of the values and no gradients, the inference-only
//     snapshot a publish takes;
//   - CloneShared: the same values and no gradients, for serving replicas;
//   - CloneReplica: the same values and fresh gradients, for the training
//     replicas of one process.
//
// FlatParams and FlatGrads expose the slabs, which is what makes the
// training hot path allocation-free: the ddp layer all-reduces the gradient
// slab directly with no gather/scatter staging, optimizers update the value
// slab in one fused vectorized pass, ZeroGrad is one memclr of it, and
// checkpoints serialize the value slab as one bulk stream. Only a network
// that trains has a gradient slab, and a value slab may be shared while a
// gradient slab never is: every training replica accumulates into one of
// its own, which is the buffer it hands to the all-reduce.
//
// # Weight gradients as factors
//
// A layer's weight gradient over a batch is xᵀ·dZ, and backward already
// holds both factors — Forward's input and the pre-activation gradient it
// computes for dx — so each layer keeps them (Dense.WeightFactors). Backward
// then adds the product into the slab, as every reader of the slab needs:
// the ring all-reduce of a group that spans processes, StepFlat, a test.
// BackwardFactors stops short of it and writes only the bias gradients: at
// the paper's batch of ten the factors of a 256×1024 weight are 50 KB
// against its megabyte of gradient, and an in-process trainer hands them to
// the update (tensor.Team.AdamFactorStep), which forms each gradient
// element in registers and never stores it.
package nn

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"melissa/internal/tensor"
)

// Param is one learnable parameter tensor together with its gradient
// accumulator. Inside a Network both matrices are views into the network's
// flat slabs, which is what the optimizer and the data-parallel all-reduce
// operate on; Grad is nil in a network that does not train. BackwardFactors
// leaves a weight's Grad untouched.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Network is a multilayer perceptron whose parameters and gradients are
// views into two contiguous slabs (see the package comment). Every Network
// is laid out by buildMLP.
type Network struct {
	Layers []*Dense

	params     []*Param  // stable order: each layer's weight, then its bias
	flatValues []float32 // contiguous backing of every Param.Value
	flatGrads  []float32 // contiguous backing of every Param.Grad; nil when the network does not train
}

// FlatParams returns the contiguous slab backing every parameter value, in
// Params() order. Mutating it mutates the network weights.
func (n *Network) FlatParams() []float32 { return n.flatValues }

// FlatGrads returns the contiguous slab backing every parameter gradient,
// in Params() order. The ddp layer all-reduces it directly.
func (n *Network) FlatGrads() []float32 { return n.flatGrads }

// SetTeam lets the network's kernels fan out over tm (nil: inline). A team
// belongs to one goroutine, so only the one that runs this network's
// Forward and Backward may own it; clones and replicas start without one.
func (n *Network) SetTeam(tm *tensor.Team) {
	for _, d := range n.Layers {
		d.team = tm
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
// every parameter gradient into the slab, and returns the gradient w.r.t.
// the network input.
func (n *Network) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d := n.Layers[i]
		dy = d.Backward(dy)
		d.addWeightGrad()
	}
	return dy
}

// BackwardFactors is Backward for an update that forms the weight gradients
// itself (tensor.Team.AdamFactorStep): it accumulates only the bias
// gradients into the slab and leaves each weight's as its layer's factors
// (Dense.WeightFactors).
func (n *Network) BackwardFactors(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// GradBucket is the contiguous gradient-slab range [Lo, Hi) that one
// layer's weight and bias occupy.
type GradBucket struct {
	Lo, Hi int
}

// GradBuckets returns the layers' slab ranges in layer order: bucket i is
// layer i's. A trainer whose group spans processes all-reduces its gradient
// slab one bucket at a time, in this order on every rank.
func (n *Network) GradBuckets() []GradBucket {
	buckets := make([]GradBucket, len(n.Layers))
	lo := 0
	for i, d := range n.Layers {
		buckets[i] = GradBucket{Lo: lo, Hi: lo + (d.In()+1)*d.Out()}
		lo = buckets[i].Hi
	}
	return buckets
}

// Params returns all learnable parameters in a stable order.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears every parameter gradient: one memclr of the gradient
// slab, and each layer forgets the weight factors of its last Backward.
// Gradients accumulate in the slab until it is cleared, which a trainer's
// update pass does for the ranges it reads.
func (n *Network) ZeroGrad() {
	tensor.Zero(n.flatGrads)
	for _, d := range n.Layers {
		d.dropFactors()
	}
}

// NumParams returns the total number of scalar learnable parameters.
func (n *Network) NumParams() int { return len(n.flatValues) }

// widths returns the layer widths in → hidden... → out.
func (n *Network) widths() []int {
	w := []int{n.Layers[0].In()}
	for _, d := range n.Layers {
		w = append(w, d.Out())
	}
	return w
}

// Clone returns an inference-only snapshot: a copy of the value slab that
// later training of the original cannot touch, and no gradient slab.
func (n *Network) Clone() *Network {
	return buildMLP(n.widths(), slices.Clone(n.flatValues), nil)
}

// CloneShared returns an inference-only network over this network's value
// slab — no weights are copied — with no gradient slab and activation
// scratch of its own, so many replicas can run Forward concurrently against
// one slab. Mutating the weights while a replica runs Forward is a data
// race.
func (n *Network) CloneShared() *Network {
	return buildMLP(n.widths(), n.flatValues, nil)
}

// CloneReplica returns a trainable replica for another data-parallel rank
// of the same process: CloneShared's view of the value slab (FlatParams is
// this network's, so one optimizer update is seen by every replica) plus a
// gradient slab of its own. Whoever writes the shared values must do so
// while no replica is in Forward or Backward.
func (n *Network) CloneReplica() *Network {
	return buildMLP(n.widths(), n.flatValues, make([]float32, len(n.flatValues)))
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
	widths, size, err := mlpWidths(inputDim, hidden, outputDim)
	if err != nil {
		panic(err)
	}
	n := buildMLP(widths, make([]float32, size), make([]float32, size))
	init := NewInitializer(seed)
	for _, d := range n.Layers {
		init.XavierUniform(d.w.Value, d.In(), d.Out())
	}
	return n
}

// LoadMLP builds the inference-only ArchitectureMLP inputDim → hidden... →
// outputDim and reads its weights from r, which must hold what SaveWeights
// wrote for that architecture. The weights are decoded straight into the
// value slab; the network has no gradient slab (FlatGrads is nil and
// Backward panics). A width below 1 is an error. Callers that take the
// widths from untrusted input bound them first: the value slab is allocated
// before r is read.
func LoadMLP(r io.Reader, inputDim int, hidden []int, outputDim int) (*Network, error) {
	widths, size, err := mlpWidths(inputDim, hidden, outputDim)
	if err != nil {
		return nil, err
	}
	n := buildMLP(widths, make([]float32, size), nil)
	br := bufio.NewReader(r)
	if err := n.readHeader(br); err != nil {
		return nil, err
	}
	if err := readF32s(br, n.flatValues); err != nil {
		return nil, fmt.Errorf("nn: reading weights: %w", err)
	}
	return n, nil
}

// mlpWidths returns the widths in → hidden... → out and the number of
// parameters an MLP of them holds. A width below 1 is an error.
func mlpWidths(in int, hidden []int, out int) ([]int, int, error) {
	widths := append(append([]int{in}, hidden...), out)
	size := 0
	for i := 1; i < len(widths); i++ {
		if widths[i-1] <= 0 || widths[i] <= 0 {
			return nil, 0, fmt.Errorf("nn: invalid Dense dims %dx%d", widths[i-1], widths[i])
		}
		size += (widths[i-1] + 1) * widths[i]
	}
	return widths, size, nil
}

// buildMLP lays the MLP widths[0] → … → widths[len-1] out over the slabs
// it is given: each Dense layer's weight and bias are views into values —
// and, when grads is not nil, into grads — in Params() order. Hidden layers
// fuse ReLU; the output layer is linear. Both slabs hold exactly the
// parameters the widths need (mlpWidths).
func buildMLP(widths []int, values, grads []float32) *Network {
	layers := len(widths) - 1
	n := &Network{
		Layers:     make([]*Dense, layers),
		params:     make([]*Param, 0, 2*layers),
		flatValues: values,
		flatGrads:  grads,
	}
	off := 0
	param := func(name string, rows, cols int) *Param {
		sz := rows * cols
		p := &Param{Name: name, Value: &tensor.Matrix{Rows: rows, Cols: cols, Data: values[off : off+sz : off+sz]}}
		if grads != nil {
			p.Grad = &tensor.Matrix{Rows: rows, Cols: cols, Data: grads[off : off+sz : off+sz]}
		}
		off += sz
		n.params = append(n.params, p)
		return p
	}
	for i := range n.Layers {
		name, relu := "output", false
		if i < layers-1 {
			name, relu = fmt.Sprintf("hidden%d", i), true
		}
		n.Layers[i] = &Dense{name: name, relu: relu, w: param(name+".weight", widths[i], widths[i+1]), b: param(name+".bias", 1, widths[i+1])}
		n.Layers[i].dropFactors()
	}
	return n
}
