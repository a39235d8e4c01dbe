// Package buffer implements the training buffers at the heart of the
// paper's contribution (§3.2.3): FIFO, FIRO (First In, Random Out) and the
// Reservoir of Algorithm 1. A training buffer sits between the data
// aggregator thread, which receives simulation time steps from the ensemble
// clients, and the training thread, which extracts batches for gradient
// descent. Its job is to mitigate the bias of streamed data (inter- and
// intra-simulation ordering, finite memory) while keeping the learner busy.
//
// Policies are pure, single-threaded data structures with non-blocking
// Put/TryGet so that both the live server (through the Blocking wrapper)
// and the discrete-event cluster simulator can drive the exact same code.
//
// # Payload ownership
//
// Every sample in a Blocking buffer owns exactly one row of the buffer's
// Arena, whose rows are as wide as the model's input and output. PutCopy
// bulk-copies an incoming payload into a recycled row under the buffer
// lock and refuses one that is not exactly a row; policies shuffle Sample
// values whose slices alias those rows; and a row returns to the free list
// the moment its sample permanently leaves the policy — evicted on Put (the
// policy's onEvict hook) or consumed for the last time on TryGet. Because
// rows are reused in place, an extracted sample's payload is only stable
// while the buffer lock is held: consumers use GetBatchEach, whose callback
// runs under the lock and must copy out (the trainer copies straight into
// its batch matrices). Snapshot deep-copies payloads for the same reason,
// and ReplaceContents copies what it restores back into rows.
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

// Policy is a training-buffer algorithm. Implementations are not safe for
// concurrent use; wrap them in Blocking for the live server, or drive them
// from the single-threaded event loop of the cluster simulator.
//
// Arena contract for implementers: the Blocking wrapper recycles a
// sample's row when it permanently leaves the policy, and it detects that
// from the policy's observable behavior. TryGet must either remove the
// returned sample (Len decreases by exactly one) or leave the population
// unchanged (a with-replacement selection, like the Reservoir's); it must
// never remove a different sample than the one it returns. Any sample
// discarded internally by Put must be reported through the setOnEvict hook
// before its storage is forgotten.
//
// Snapshot contract: every policy can be checkpointed (§3.1: a checkpoint
// captures every buffered but untrained sample). Snapshot and
// RestoreSnapshot round-trip the whole population, seen/unseen split
// included, so a restored policy yields what the captured one would have.
type Policy interface {
	// Name returns the policy name as used in the paper's tables
	// ("FIFO", "FIRO", "Reservoir").
	Name() string
	// Put offers a newly received sample. It returns false when the policy
	// cannot accept it right now (buffer full), in which case the producer
	// must retry later — the paper's "data production is suspended".
	Put(s Sample) bool
	// TryGet extracts one sample for batch construction, returning false
	// when the policy's rules (threshold, emptiness) forbid extraction.
	TryGet() (Sample, bool)
	// EndReception records that no more data will ever arrive. Thresholds
	// are lifted so the remaining population can be drained (§3.2.3). It is
	// a fact about the producer and is never taken back: a consumer that
	// merely wants to stop waiting says so itself (Blocking.Wake).
	EndReception()
	// ReceptionOver reports whether EndReception has been called.
	ReceptionOver() bool
	// Len returns the number of samples currently stored.
	Len() int
	// Capacity returns the maximum number of stored samples, 0 meaning
	// unbounded.
	Capacity() int
	// Drained reports that reception is over and no sample will ever be
	// returned again; the training loop terminates on it.
	Drained() bool
	// Snapshot returns deep copies of the stored samples: payloads are
	// cloned, so the snapshot stays valid after the buffer lock is released
	// and its rows are reused. A policy without a seen/unseen distinction
	// reports everything as unseen.
	Snapshot() (seen, unseen []Sample)
	// RestoreSnapshot replaces the contents with seen and unseen, taking
	// ownership of both slices. The reception flag is not part of the
	// snapshot; callers re-derive it from their own state.
	RestoreSnapshot(seen, unseen []Sample)
}

// PopulationCounter is implemented by policies that distinguish seen from
// unseen samples; the Reservoir exposes both counts for the population
// curves of Figure 2.
type PopulationCounter interface {
	SeenCount() int
	UnseenCount() int
}

// Kind selects a buffer policy by name.
type Kind string

// The three policies evaluated in the paper.
const (
	FIFOKind      Kind = "FIFO"
	FIROKind      Kind = "FIRO"
	ReservoirKind Kind = "Reservoir"
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
func New(cfg Config) (Policy, error) {
	switch cfg.Kind {
	case FIFOKind:
		return NewFIFO(cfg.Capacity), nil
	case FIROKind:
		return NewFIRO(cfg.Capacity, cfg.Threshold, cfg.Seed), nil
	case ReservoirKind:
		return NewReservoir(cfg.Capacity, cfg.Threshold, cfg.Seed), nil
	case UniformEvictKind:
		return NewUniformEvict(cfg.Capacity, cfg.Threshold, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("buffer: unknown kind %q", cfg.Kind)
	}
}

// newRNG builds the seeded stream used by the random policies; the paper
// seeds every stochastic component for reproducibility (§3.1).
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}
