// Package buffer implements the training buffers at the heart of the
// paper's contribution (§3.2.3): FIFO, FIRO (First In, Random Out), the
// Reservoir of Algorithm 1, and the UniformEvict ablation. A training
// buffer sits between the data aggregator thread, which receives simulation
// time steps from the ensemble clients, and the training thread, which
// extracts batches for gradient descent. Its job is to mitigate the bias of
// streamed data (inter- and intra-simulation ordering, finite memory) while
// keeping the learner busy.
//
// All four are one Policy, a pure, single-threaded data structure with
// non-blocking Put/TryGet, so that both the live server (through the
// Blocking wrapper) and the discrete-event cluster simulator drive the
// exact same code. The kinds differ in three decisions only (see Policy):
// which sample a get selects, whether a selected sample stays as "seen",
// and what a full buffer does with a new sample.
//
// # Payload ownership
//
// Every sample in a Blocking buffer owns exactly one row of the buffer's
// Arena, whose rows are as wide as the model's input and output. PutCopy
// bulk-copies an incoming payload into a recycled row under the buffer
// lock and refuses one that is not exactly a row; the policy shuffles
// Sample values whose slices alias those rows; and a row returns to the
// free list the moment its sample retires — evicted by Put, or selected by
// a get that does not keep it. Because rows are reused in place, an
// extracted sample's payload is only stable while the buffer lock is held:
// consumers use GetBatchEach, whose callback runs under the lock and must
// copy out (the trainer copies straight into its batch matrices). Snapshot
// deep-copies payloads for the same reason, and ReplaceContents copies what
// it restores back into rows.
package buffer

import (
	"fmt"
	"math/rand/v2"
)

// Sample is one training example: the field of a single simulation time
// step together with the inputs that produced it (§4.1: "one sample being
// the time step u_t^X of one simulation associated with its 6 input
// parameters (X, t)").
type Sample struct {
	SimID int // ensemble member that produced the step
	Step  int // time-step index within the simulation
	// Input holds the surrogate inputs: the simulation parameters X
	// followed by the (normalized) time step.
	Input []float32
	// Output is the flattened discretized field u_t^X.
	Output []float32

	// slot is the arena row backing Input/Output while the sample is in a
	// Blocking buffer. Unexported on purpose: only the wrapper leases and
	// recycles rows, and gob (checkpoints) drops it — ReplaceContents leases
	// a fresh row for every sample it restores.
	slot int32
}

// Key identifies a unique sample within an ensemble run. The server's
// fault-tolerance log deduplicates on it, and the occurrence histograms of
// Figure 3 are keyed by it.
type Key struct {
	SimID int
	Step  int
}

// Key returns the sample's identity.
func (s Sample) Key() Key { return Key{SimID: s.SimID, Step: s.Step} }

// Kind selects a buffer policy by name.
type Kind string

// The three policies evaluated in the paper, and the eviction ablation.
const (
	FIFOKind         Kind = "FIFO"
	FIROKind         Kind = "FIRO"
	ReservoirKind    Kind = "Reservoir"
	UniformEvictKind Kind = "UniformEvict"
)

// Kinds lists every policy New builds: the paper's three, then the
// UniformEvict ablation.
func Kinds() []Kind { return []Kind{FIFOKind, FIROKind, ReservoirKind, UniformEvictKind} }

// Config carries the buffer parameters used across all experiments
// (§4.3: "FIRO and Reservoir have a fixed capacity of 6,000 samples …
// with a threshold set to 1,000").
type Config struct {
	Kind      Kind
	Capacity  int
	Threshold int
	Seed      uint64
}

// New builds the configured policy.
func New(cfg Config) (*Policy, error) {
	switch cfg.Kind {
	case FIFOKind:
		return NewFIFO(cfg.Capacity), nil
	case FIROKind, ReservoirKind, UniformEvictKind:
		return newPolicy(cfg.Kind, cfg.Capacity, cfg.Threshold, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("buffer: unknown kind %q", cfg.Kind)
	}
}

// NewFIFO builds the streaming baseline (§3.2.3): samples are batched in
// exactly the order they are received, each once, as soon as one is
// stored. capacity 0 means unbounded.
func NewFIFO(capacity int) *Policy { return &Policy{kind: FIFOKind, capacity: capacity} }

// NewFIRO builds a FIRO buffer: FIFO with eviction-on-read from a random
// position, which de-biases batches.
func NewFIRO(capacity, threshold int, seed uint64) *Policy {
	return newPolicy(FIROKind, capacity, threshold, seed)
}

// NewReservoir builds the Reservoir of Algorithm 1.
func NewReservoir(capacity, threshold int, seed uint64) *Policy {
	return newPolicy(ReservoirKind, capacity, threshold, seed)
}

// NewUniformEvict builds the ablation of the Reservoir's eviction rule.
func NewUniformEvict(capacity, threshold int, seed uint64) *Policy {
	return newPolicy(UniformEvictKind, capacity, threshold, seed)
}

// newPolicy builds a random-selection policy. Its RNG stream is seeded,
// as the paper seeds every stochastic component for reproducibility
// (§3.1).
func newPolicy(kind Kind, capacity, threshold int, seed uint64) *Policy {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	return &Policy{kind: kind, capacity: capacity, threshold: threshold, rng: rng}
}

// Policy is a training buffer. It holds the samples a get has selected and
// kept ("seen") apart from those never selected ("unseen", in arrival
// order), and its kind decides three things:
//
//   - Select: FIFO takes the oldest unseen sample; FIRO, the Reservoir and
//     UniformEvict draw one uniformly over seen and unseen.
//   - Keep: until reception ends, the Reservoir and UniformEvict keep a
//     selected sample as seen, so it can be selected again (repetition
//     keeps the learner busy when production lags); FIFO and FIRO never
//     keep one, and after reception every kind drains.
//   - Full: a Put into a full buffer evicts a random seen sample, and
//     refuses while unseen samples alone fill it (so always for FIFO and
//     FIRO): the producer waits (the paper's "data production is
//     suspended"), and no unseen sample is ever discarded — except by
//     UniformEvict, which evicts a random resident, seen or not, and never
//     refuses.
//
// A sample retires — leaves the buffer for good — when Put evicts it or a
// get selects it without keeping it. The Blocking wrapper recycles the
// sample's arena row exactly then: take reports the retirement, and Put
// calls onEvict.
//
// Gets wait until the population exceeds the threshold (FIFO has none),
// so the first batches are diverse; EndReception lifts the gate.
//
// A Policy is not safe for concurrent use; wrap it in Blocking for the
// live server, or drive it from the single-threaded event loop of the
// cluster simulator.
type Policy struct {
	kind      Kind
	capacity  int // 0 = unbounded
	threshold int
	seen      []Sample
	unseen    []Sample // unseen[head:] are resident, oldest first
	head      int      // FIFO's pop index; storage is compacted lazily
	rng       *rand.Rand
	over      bool
	onEvict   func(Sample)
}

// Put offers a newly received sample, appending it to the unseen list. It
// returns false when a full buffer holds no sample it may evict; the
// producer must retry later.
func (p *Policy) Put(s Sample) bool {
	if p.capacity > 0 && p.Len() >= p.capacity {
		first := p.UnseenCount() // residents are unseen, then seen
		if p.kind == UniformEvictKind {
			first = 0
		} else if first >= p.capacity {
			return false // block until one element gets seen
		}
		i := first + p.rng.IntN(p.Len()-first)
		if p.onEvict != nil {
			p.onEvict(p.at(i))
		}
		p.remove(i)
	}
	p.unseen = append(p.unseen, s)
	return true
}

// TryGet extracts one sample for batch construction, returning false when
// the buffer is empty or, before EndReception, holds no more than the
// threshold.
func (p *Policy) TryGet() (Sample, bool) {
	s, _, ok := p.take()
	return s, ok
}

// take is TryGet that also reports whether the sample retired (was not
// kept).
func (p *Policy) take() (s Sample, retired, ok bool) {
	n := p.Len()
	if n == 0 || (!p.over && n <= p.threshold) {
		return Sample{}, false, false
	}
	if p.kind == FIFOKind {
		s = p.unseen[p.head]
		p.popHead()
		return s, true, true
	}
	i := p.rng.IntN(n)
	s = p.at(i)
	if p.keeps() && !p.over {
		if i < p.UnseenCount() {
			p.remove(i)
			p.seen = append(p.seen, s)
		}
		return s, false, true
	}
	p.remove(i)
	return s, true, true
}

// keeps reports whether a get keeps what it selects until reception ends.
func (p *Policy) keeps() bool { return p.kind == ReservoirKind || p.kind == UniformEvictKind }

// at returns the i-th resident, counting the unseen list first.
func (p *Policy) at(i int) Sample {
	if u := p.UnseenCount(); i >= u {
		return p.seen[i-u]
	}
	return p.unseen[p.head+i]
}

// remove swap-removes the i-th resident (as counted by at) from its list.
func (p *Policy) remove(i int) {
	if u := p.UnseenCount(); i >= u {
		p.seen = removeAt(p.seen, i-u)
	} else {
		p.unseen = removeAt(p.unseen, p.head+i)
	}
}

// popHead drops the oldest unseen sample.
func (p *Policy) popHead() {
	p.unseen[p.head] = Sample{} // release references for GC
	p.head++
	// Compact once the dead prefix dominates, keeping Put amortized O(1).
	if p.head > 64 && p.head*2 >= len(p.unseen) {
		n := copy(p.unseen, p.unseen[p.head:])
		clear(p.unseen[n:])
		p.unseen = p.unseen[:n]
		p.head = 0
	}
}

// removeAt swap-removes list[i], clearing the vacated slot.
func removeAt(list []Sample, i int) []Sample {
	last := len(list) - 1
	list[i] = list[last]
	list[last] = Sample{}
	return list[:last]
}

// EndReception records that no more data will ever arrive: the threshold
// gate lifts and every get retires what it selects, so the population
// drains (§3.2.3: "The threshold is set to zero once data production is
// over to enable consuming the last produced data"). It is a fact about
// the producer and is never taken back: a consumer that merely wants to
// stop waiting says so itself (Blocking.Wake).
func (p *Policy) EndReception() { p.over = true }

// Len returns the number of samples currently stored.
func (p *Policy) Len() int { return len(p.seen) + p.UnseenCount() }

// SeenCount returns how many stored samples a get has selected and kept;
// always 0 for FIFO and FIRO. With UnseenCount it gives the population
// curves of Figure 2.
func (p *Policy) SeenCount() int { return len(p.seen) }

// UnseenCount returns how many stored samples were never selected.
func (p *Policy) UnseenCount() int { return len(p.unseen) - p.head }

// Drained reports that reception is over and no sample will ever be
// returned again; the training loop terminates on it.
func (p *Policy) Drained() bool { return p.over && p.Len() == 0 }

// Snapshot returns deep copies of the stored samples: payloads are cloned,
// so the snapshot stays valid after the buffer lock is released and its
// rows are reused. Every policy can be checkpointed (§3.1: a checkpoint
// captures every buffered but untrained sample).
func (p *Policy) Snapshot() (seen, unseen []Sample) {
	return cloneSamples(p.seen), cloneSamples(p.unseen[p.head:])
}

// RestoreSnapshot replaces the contents with seen and unseen, taking
// ownership of both slices, so a restored policy yields what the captured
// one would have. A kind that keeps nothing treats seen samples as pending
// data ahead of the unseen ones; the others preserve the split, so
// eviction priorities survive a server restart. The reception flag is not
// part of the snapshot; callers re-derive it from their own state.
func (p *Policy) RestoreSnapshot(seen, unseen []Sample) {
	if !p.keeps() {
		seen, unseen = nil, append(seen, unseen...)
	}
	p.seen, p.unseen, p.head = seen, unseen, 0
}

// cloneSamples deep-copies samples, detaching payloads from the arena rows
// backing them.
func cloneSamples(src []Sample) []Sample {
	out := make([]Sample, len(src))
	for i, s := range src {
		out[i] = Sample{
			SimID:  s.SimID,
			Step:   s.Step,
			Input:  append([]float32(nil), s.Input...),
			Output: append([]float32(nil), s.Output...),
		}
	}
	return out
}
