// Package core implements the online-training engine that is the paper's
// primary contribution: per-rank training threads that extract batches from
// the training buffers, run forward/backward on replica networks,
// synchronize gradients across ranks (the "GPUs"), and apply the shared
// learning-rate schedule — all fed concurrently by data aggregators. The
// live server (internal/server) and the cluster simulator
// (internal/experiments) both build on these pieces.
package core

import (
	"fmt"

	"melissa/internal/buffer"
	"melissa/internal/nn"
	"melissa/internal/sampling"
	"melissa/internal/tensor"
)

// ModelSpec describes the surrogate architecture (§4.1: an MLP from the
// simulation parameters and time to the flattened field).
type ModelSpec struct {
	InputDim  int
	Hidden    []int
	OutputDim int
	Seed      uint64
}

// Build constructs the seeded network.
func (m ModelSpec) Build() (*nn.Network, error) {
	if m.InputDim <= 0 || m.OutputDim <= 0 {
		return nil, fmt.Errorf("core: invalid model dims in=%d out=%d", m.InputDim, m.OutputDim)
	}
	return nn.ArchitectureMLP(m.InputDim, m.Hidden, m.OutputDim, m.Seed), nil
}

// Normalizer maps raw streamed samples (physical units) into network input
// and target rows. Keeping normalization on the training side leaves the
// wire data faithful to the solver output.
type Normalizer interface {
	InputDim() int
	OutputDim() int
	// Apply writes the normalized input and target for s.
	Apply(s buffer.Sample, inRow, outRow []float32)
}

// RowNormalizer is the row-oriented half of the public normalizer
// contract: it maps one raw input vector and one raw field to normalized
// rows, without knowing about the streamed Sample framing. The root
// package's Normalizer interface satisfies it.
type RowNormalizer interface {
	InputDim() int
	OutputDim() int
	NormalizeInput(raw, dst []float32)
	NormalizeOutput(raw, dst []float32)
}

// AdaptNormalizer bridges a row-oriented normalizer to the trainer-side
// sample interface. Normalizers that already implement Normalizer (like
// FieldNormalizer) pass through unwrapped.
func AdaptNormalizer(n RowNormalizer) Normalizer {
	if cn, ok := n.(Normalizer); ok {
		return cn
	}
	return rowAdapter{n}
}

type rowAdapter struct{ n RowNormalizer }

func (a rowAdapter) InputDim() int  { return a.n.InputDim() }
func (a rowAdapter) OutputDim() int { return a.n.OutputDim() }
func (a rowAdapter) Apply(s buffer.Sample, inRow, outRow []float32) {
	a.n.NormalizeInput(s.Input, inRow)
	a.n.NormalizeOutput(s.Output, outRow)
}

// FieldNormalizer is the generic affine normalizer every field-predicting
// problem shares: design parameters map to [0,1] over their sampled box,
// physical time to [0,1] over the simulation horizon, and the flattened
// field to [0,1] over its physical bounds. The heat equation (paper setup)
// and Gray–Scott both instantiate it with their own ranges.
type FieldNormalizer struct {
	// Space is the parameter design space (heat paper: [100,500] K per dim).
	Space sampling.Space
	// TimeMax is the simulation horizon Steps·Δt.
	TimeMax float64
	// FieldMin/FieldMax bound the physical field values (for the heat
	// equation the maximum principle guarantees the field stays within the
	// sampled temperature range).
	FieldMin, FieldMax float64
	// FieldDim is the flattened field length (channels × grid points).
	FieldDim int
}

// NewFieldNormalizer builds a normalizer from a problem's geometry.
func NewFieldNormalizer(space sampling.Space, timeMax, fieldMin, fieldMax float64, fieldDim int) FieldNormalizer {
	return FieldNormalizer{
		Space:    space,
		TimeMax:  timeMax,
		FieldMin: fieldMin,
		FieldMax: fieldMax,
		FieldDim: fieldDim,
	}
}

// NewHeatNormalizer builds the normalizer for the paper's setup.
func NewHeatNormalizer(fieldDim int, timeMax float64) FieldNormalizer {
	return NewFieldNormalizer(sampling.HeatSpace(), timeMax, 100, 500, fieldDim)
}

// InputDim implements Normalizer: the parameters plus the time input.
func (h FieldNormalizer) InputDim() int { return h.Space.Dim() + 1 }

// OutputDim implements Normalizer.
func (h FieldNormalizer) OutputDim() int { return h.FieldDim }

// NormalizeInput writes the normalized network input for one raw input
// vector (the physical parameters followed by the physical time).
func (h FieldNormalizer) NormalizeInput(raw, dst []float32) {
	d := h.Space.Dim()
	for i := 0; i < d; i++ {
		span := h.Space.Max[i] - h.Space.Min[i]
		dst[i] = float32((float64(raw[i]) - h.Space.Min[i]) / span)
	}
	if h.TimeMax > 0 {
		dst[d] = float32(float64(raw[d]) / h.TimeMax)
	} else {
		dst[d] = raw[d]
	}
}

// NormalizeOutput writes the normalized training target for one raw field.
func (h FieldNormalizer) NormalizeOutput(raw, dst []float32) {
	// Capped at len(dst): a raw field longer than the row must panic, not
	// run on into the rows behind it.
	tensor.AffineNorm(dst[:len(raw):len(dst)], raw, float32(h.FieldMin), float32(h.FieldMax-h.FieldMin))
}

// Apply implements Normalizer.
func (h FieldNormalizer) Apply(s buffer.Sample, inRow, outRow []float32) {
	h.NormalizeInput(s.Input, inRow)
	h.NormalizeOutput(s.Output, outRow)
}

// DenormalizeField maps a normalized prediction back to physical units in
// place.
func (h FieldNormalizer) DenormalizeField(field []float32) {
	span := float32(h.FieldMax - h.FieldMin)
	min := float32(h.FieldMin)
	for i := range field {
		field[i] = field[i]*span + min
	}
}

// RawMSE converts a normalized-unit MSE into physical units² (Kelvin² for
// the heat equation), for comparing against the paper's raw-scale loss
// values.
func (h FieldNormalizer) RawMSE(normalizedMSE float64) float64 {
	span := h.FieldMax - h.FieldMin
	return normalizedMSE * span * span
}

// BuildBatch fills the in/out matrices (rows = len(batch)) from samples.
// The matrices must have matching widths; they are allocated by the caller
// and reused across batches.
func BuildBatch(norm Normalizer, batch []buffer.Sample, in, out *tensor.Matrix) {
	if in.Rows != len(batch) || out.Rows != len(batch) {
		panic(fmt.Sprintf("core: batch size %d, matrices %dx? %dx?", len(batch), in.Rows, out.Rows))
	}
	for i, s := range batch {
		norm.Apply(s, in.Row(i), out.Row(i))
	}
}

// ValidationSet is a held-out dataset in normalized units, evaluated
// periodically to measure generalization (§4.4: "10 simulations generated
// offline and never seen during training").
type ValidationSet struct {
	In  *tensor.Matrix
	Out *tensor.Matrix

	// view is the reusable chunk-view header handed to Forward. It lives
	// on the set rather than Validate's stack because layers retain the
	// pointer (lastX), which would otherwise force a fresh heap header per
	// call. Consequently a ValidationSet must not be validated from two
	// goroutines at once — already required, since the network isn't
	// concurrency-safe either.
	view tensor.Matrix
}

// NewValidationSet normalizes raw samples into an evaluation set.
func NewValidationSet(norm Normalizer, samples []buffer.Sample) *ValidationSet {
	in := tensor.New(len(samples), norm.InputDim())
	out := tensor.New(len(samples), norm.OutputDim())
	for i, s := range samples {
		norm.Apply(s, in.Row(i), out.Row(i))
	}
	return &ValidationSet{In: in, Out: out}
}

// Len returns the number of validation samples.
func (v *ValidationSet) Len() int { return v.In.Rows }

// validateBlockRows bounds the rows of one validation forward; a block is
// the largest whole number of chunks that fits, and at least one chunk.
const validateBlockRows = 512

// Validate computes the validation MSE of net over the set. It forwards
// the set in blocks of whole chunk-row segments and sums the squared error
// one chunk at a time, in order: a forward row does not depend on the rows
// that come with it (see the tensor package), so the MSE has the bits of a
// chunk-by-chunk pass at a fraction of its forwards.
func Validate(net *nn.Network, set *ValidationSet, chunk int) float64 {
	if set == nil || set.Len() == 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 32
	}
	block := max(validateBlockRows/chunk, 1) * chunk
	rows, cols := set.In.Rows, set.Out.Cols
	var sum float64
	// One reusable view header (set.view) serves every block; the
	// network's layers pool their activations per block shape, so repeated
	// validation passes allocate nothing.
	for start := 0; start < rows; start += block {
		end := min(start+block, rows)
		set.In.ViewRows(&set.view, start, end)
		pred := net.Forward(&set.view).Data
		for seg := start; seg < end; seg += chunk {
			segEnd := min(seg+chunk, end)
			sum += tensor.SqDiffSum(pred[(seg-start)*cols:(segEnd-start)*cols], set.Out.Data[seg*cols:segEnd*cols])
		}
	}
	return sum / float64(rows*cols)
}
