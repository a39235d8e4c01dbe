package melissa

import (
	"fmt"

	"melissa/internal/atomicfile"
	"melissa/internal/nn"
	"melissa/internal/tensor"
)

// Replica is an inference worker bound to a Surrogate: it shares the
// surrogate's weight storage (no copy — see nn.Network.CloneShared) and owns
// all forward scratch, so replicas evaluate batches concurrently against
// one weight slab. PredictBatchRaw is the one place a query is normalized,
// run through the network and denormalized: each of melissa-serve's batch
// workers owns a replica, and Surrogate.Predict runs one row on a replica of
// its own. It speaks float32 end to end, matching the wire protocol, and its
// batch call is allocation-free at steady state.
//
// A Replica is not safe for concurrent use; give each goroutine its own.
// The surrogate's weights must not be mutated while replicas exist.
type Replica struct {
	s        *Surrogate
	net      *nn.Network
	maxBatch int
	in       *tensor.Matrix // maxBatch × inputDim staging for normalized rows
	batch    tensor.Matrix  // view of in's first n rows, the forward's input
	// row is shared per-row scratch, sized max(InputDim, OutputDim): the
	// input loop stages raw (params, t) rows in row[:InputDim], the output
	// loop denormalizes into row[:OutputDim] and hands that to emit. The
	// max sizing matters — a scalar-output surrogate has OutputDim smaller
	// than InputDim, so neither dimension alone covers both uses.
	row []float32
}

// NewReplica returns an inference replica sharing this surrogate's weights.
// maxBatch is a capacity — the most rows one PredictBatchRaw call may carry
// and what the staging buffers are sized for — and has no part in any
// answer: replicas of one surrogate may differ in it freely.
func (s *Surrogate) NewReplica(maxBatch int) *Replica {
	if maxBatch < 1 {
		panic(fmt.Sprintf("melissa: NewReplica maxBatch %d, want >= 1", maxBatch))
	}
	return &Replica{
		s:        s,
		net:      s.net.CloneShared(),
		maxBatch: maxBatch,
		in:       tensor.New(maxBatch, s.norm.InputDim()),
		row:      make([]float32, max(s.norm.InputDim(), s.norm.OutputDim())),
	}
}

// PredictBatchRaw evaluates n queries in one fused forward pass. query(i)
// must return query i's design parameters (length ParamDim, float32, wire
// order) and physical time; emit(i, field) receives the denormalized field
// for query i and must copy or encode it before returning — the buffer is
// reused for the next row.
//
// The forward pass runs at exactly n rows, and each answer is a pure
// function of (weights, query): tensor's a·b computes an output row from its
// input row alone, in an order fixed by the layer shape (tensor package
// comment, "row invariance"), so the bits do not depend on which
// requests were coalesced together, how many there were, which replica ran
// them, its MaxBatch, or what position the query landed in. That exactness
// is what lets a cache hit stand in for a fresh compute and lets the
// hot-reload test demand old-bits-or-new-bits, never a blend. The layers'
// activation buffers are views of storage sized for the largest batch seen,
// so the steady-state call performs no allocations at any n.
func (r *Replica) PredictBatchRaw(n int, query func(i int) (params []float32, t float32), emit func(i int, field []float32)) error {
	if n < 1 || n > r.maxBatch {
		return fmt.Errorf("melissa: replica batch of %d rows, want 1..%d", n, r.maxBatch)
	}
	dim := r.s.ParamDim()
	width := r.s.norm.InputDim()
	for i := 0; i < n; i++ {
		params, t := query(i)
		if len(params) != dim {
			return fmt.Errorf("melissa: query %d has %d parameters, problem %q wants %d", i, len(params), r.s.meta.Problem, dim)
		}
		raw := r.row[:width]
		copy(raw, params)
		raw[dim] = t
		r.s.norm.NormalizeInput(raw, r.in.Data[i*width:(i+1)*width])
	}
	r.in.ViewRows(&r.batch, 0, n)
	pred := r.net.Forward(&r.batch)
	out := r.s.norm.OutputDim()
	for i := 0; i < n; i++ {
		field := r.row[:out]
		copy(field, pred.Data[i*out:(i+1)*out])
		r.s.norm.DenormalizeField(field)
		emit(i, field)
	}
	return nil
}

// PublishSurrogate atomically writes the surrogate's self-describing
// checkpoint to path (atomicfile.Write), so a concurrent reader
// (melissa-serve's checkpoint watcher, most importantly) sees either the
// previous complete file or the new complete file and never a torn prefix.
// It is the one way a surrogate file is written. This is the
// training→serving handoff primitive: publish from a training hook, and a
// watching server hot-reloads it.
func PublishSurrogate(s *Surrogate, path string) error {
	return atomicfile.Write(path, s.Save)
}
