package buffer

import "math/rand/v2"

// FIRO (First In, Random Out) behaves like FIFO with eviction-on-read from
// a random position, which de-biases batches (§3.2.3). Extraction is gated
// by a fill threshold that is dropped to zero once data production ends, so
// the last produced samples can still be consumed. Each sample is seen
// exactly once, like FIFO.
type FIRO struct {
	capacity  int
	threshold int
	items     []Sample
	rng       *rand.Rand
	over      bool
}

// NewFIRO builds a FIRO buffer. Extraction requires the population to
// exceed threshold until EndReception is called.
func NewFIRO(capacity, threshold int, seed uint64) *FIRO {
	return &FIRO{capacity: capacity, threshold: threshold, rng: newRNG(seed)}
}

// Name implements Policy.
func (f *FIRO) Name() string { return string(FIROKind) }

// Put implements Policy. Newly received samples are appended at the end of
// the list container, as in the paper's implementation.
func (f *FIRO) Put(s Sample) bool {
	if f.capacity > 0 && len(f.items) >= f.capacity {
		return false
	}
	f.items = append(f.items, s)
	return true
}

// TryGet implements Policy: a uniformly random element is removed and
// returned, provided the population exceeds the threshold (or reception is
// over).
func (f *FIRO) TryGet() (Sample, bool) {
	if len(f.items) == 0 {
		return Sample{}, false
	}
	if !f.over && len(f.items) <= f.threshold {
		return Sample{}, false
	}
	i := f.rng.IntN(len(f.items))
	s := f.items[i]
	f.items = removeAt(f.items, i)
	return s, true
}

// EndReception implements Policy: "The threshold is set to zero once data
// production is over to enable consuming the last produced data."
func (f *FIRO) EndReception() { f.over = true }

// ReceptionOver implements Policy.
func (f *FIRO) ReceptionOver() bool { return f.over }

// Len implements Policy.
func (f *FIRO) Len() int { return len(f.items) }

// Capacity implements Policy.
func (f *FIRO) Capacity() int { return f.capacity }

// Drained implements Policy.
func (f *FIRO) Drained() bool { return f.over && len(f.items) == 0 }
