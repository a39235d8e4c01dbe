package opt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"melissa/internal/protocol"
	"melissa/internal/tensor"
)

// Adam implements Kingma & Ba's Adam optimizer, the one the paper trains
// with (§4.1). Default hyperparameters match PyTorch: β1=0.9, β2=0.999,
// ε=1e-8. The first and second moments are stored as two flat slabs
// matching the network's parameter slab layout. It is stateful and not safe
// for concurrent use; each data-parallel rank owns one handle, and the
// handles of one process alias a single pair of moment slabs (see Alias).
type Adam struct {
	lr    float64
	beta1 float64
	beta2 float64
	eps   float64
	step  uint64
	m, v  []float32    // flat moment slabs, Params() order
	team  *tensor.Team // the cores the update may fan out over; nil runs inline
}

// NewAdam returns an Adam optimizer with PyTorch-default betas and epsilon.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// alpha advances the step counter and returns the bias-corrected step size
// along with the float32 hyperparameters. Folding the corrections into the
// learning rate is the standard trick from the Adam paper §2.
func (a *Adam) alpha() (alpha, b1, b2, eps float32) {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	return float32(a.lr * math.Sqrt(bc2) / bc1), float32(a.beta1), float32(a.beta2), float32(a.eps)
}

// StepFlat applies one update, at the current learning rate, to a network's
// flat value and gradient slabs (nn.Network.FlatParams/FlatGrads) through
// tensor.AdamStep. This is the training hot path; it performs no
// allocations in steady state. The caller zeroes the gradients afterwards.
func (a *Adam) StepFlat(values, grads []float32) {
	a.StepFlatRange(values, grads, 0, len(values))
}

// StepFlatRange is StepFlat confined to elements [lo, hi) of the slabs: the
// step counter advances as for a whole step, the rest of the values and
// moments is left alone. The update is element-wise, so handles that alias
// one state (Alias) and each step a disjoint range of one value slab leave
// exactly what a single StepFlat would — the ranks of one process share the
// update this way, and each may step its range concurrently with the others.
func (a *Adam) StepFlatRange(values, grads []float32, lo, hi int) {
	if len(values) != len(grads) {
		panic(fmt.Sprintf("opt: StepFlat slab lengths %d vs %d", len(values), len(grads)))
	}
	a.ensureState(len(values))
	alpha, b1, b2, eps := a.alpha()
	a.team.AdamStep(values[lo:hi], grads[lo:hi], a.m[lo:hi], a.v[lo:hi], alpha, b1, b2, eps)
}

// SetTeam lets this handle's updates fan out over tm (nil: inline). Only
// the goroutine that owns tm may step this handle; an Alias inherits it.
func (a *Adam) SetTeam(tm *tensor.Team) { a.team = tm }

// Alias returns a second handle on a's moments, sized for a slab of total
// floats: the same m and v, its own step counter and learning rate, both
// starting at a's. Handles that take the same sequence of steps and SetLR
// calls stay interchangeable, so nobody has to synchronise on them.
func (a *Adam) Alias(total int) *Adam {
	a.ensureState(total)
	h := *a
	return &h
}

// Len is the number of floats in each moment slab; 0 before the first step.
func (a *Adam) Len() int { return len(a.m) }

// SetLR changes the learning rate used by subsequent steps.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// ensureState allocates the moments on first use. A state that exists and
// does not fit is a bug in the caller (Trainer.RestoreState checks Len before
// it installs a restored state): reallocating would silently discard it and
// un-share it from its aliases.
func (a *Adam) ensureState(total int) {
	switch {
	case len(a.m) == total:
	case len(a.m) == 0:
		a.m = make([]float32, total)
		a.v = make([]float32, total)
	default:
		panic(fmt.Sprintf("opt: adam state has %d floats, slab has %d", len(a.m), total))
	}
}

// stateChunk is how many floats SaveState and LoadState move per staging
// buffer, and the most LoadState allocates ahead of the bytes it has read.
const stateChunk = 1 << 16

// StateSize is the number of bytes SaveState writes, for callers that
// pre-size their destination.
func (a *Adam) StateSize() int { return 16 + 8*len(a.m) }

// SaveState serializes the step counter and the moments. Layout: step u64 |
// segments u32 (always 1) | len u32 | m f32s | v f32s.
func (a *Adam) SaveState(w io.Writer) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], a.step)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(a.m)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*min(len(a.m), stateChunk))
	for _, slab := range [][]float32{a.m, a.v} {
		for len(slab) > 0 {
			k := min(len(slab), stateChunk)
			protocol.EncodeF32s(buf, slab[:k])
			if _, err := w.Write(buf[:4*k]); err != nil {
				return err
			}
			slab = slab[k:]
		}
	}
	return nil
}

// LoadState restores state written by SaveState; the parameter layout must
// match. The length is a claim, not a fact: the slabs grow one stateChunk at
// a time, each only after its bytes have arrived, so a corrupt or hostile
// header costs one staging buffer, not the gigabytes it names. On error the
// optimizer is left as it was.
func (a *Adam) LoadState(r io.Reader) error {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("opt: reading adam header: %w", err)
	}
	if segments := binary.LittleEndian.Uint32(hdr[8:]); segments != 1 {
		return fmt.Errorf("opt: adam state has %d segments, want the single slab SaveState writes", segments)
	}
	claimed := binary.LittleEndian.Uint32(hdr[12:])
	if claimed > 1<<30 {
		return fmt.Errorf("opt: unreasonable adam state length %d", claimed)
	}
	n := int(claimed)
	buf := make([]byte, 4*min(n, stateChunk))
	m, err := appendF32s(nil, r, n, buf)
	var v []float32
	if err == nil {
		v, err = appendF32s(nil, r, n, buf)
	}
	if err != nil {
		return fmt.Errorf("opt: adam state claims %d floats: %w", n, err)
	}
	a.step, a.m, a.v = binary.LittleEndian.Uint64(hdr[0:]), m, v
	return nil
}

// appendF32s reads n floats from r and appends them to dst, one buf-full at
// a time, growing dst only by what has been read.
func appendF32s(dst []float32, r io.Reader, n int, buf []byte) ([]float32, error) {
	for n > 0 {
		k := min(n, len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return dst, err
		}
		dst = append(dst, make([]float32, k)...)
		protocol.DecodeF32s(dst[len(dst)-k:], buf[:4*k])
		n -= k
	}
	return dst, nil
}
