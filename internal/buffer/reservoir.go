package buffer

import "math/rand/v2"

// Reservoir implements Algorithm 1, the paper's key contribution. It
// distinguishes samples that have already been selected into a batch
// ("seen") from newly received ones ("unseen"):
//
//   - Get selects uniformly over both lists (with replacement across
//     batches), migrating unseen samples to the seen list; so data can be
//     repeated to keep the learner busy when production lags, while no
//     unseen sample is ever discarded.
//   - Put blocks only while the buffer is entirely full of unseen samples;
//     when full otherwise, a random *seen* sample is evicted, giving
//     priority to fresh data.
//   - A threshold delays the first batches until the population is diverse
//     enough; it is lifted when reception ends, and the buffer then drains
//     to empty (samples are deleted upon selection).
//
// The split between seen and unseen space is regulated dynamically by the
// incoming flow, avoiding the static split a dual buffer would need
// (§3.2.3).
type Reservoir struct {
	capacity  int
	threshold int
	seen      []Sample
	notSeen   []Sample
	rng       *rand.Rand
	over      bool
	onEvict   func(Sample)
}

// setOnEvict implements evictNotifier: fn observes every sample Put
// discards internally, before its storage may be reused.
func (r *Reservoir) setOnEvict(fn func(Sample)) { r.onEvict = fn }

// NewReservoir builds a Reservoir with the given capacity and extraction
// threshold, using the seeded RNG stream for uniform selection.
func NewReservoir(capacity, threshold int, seed uint64) *Reservoir {
	return &Reservoir{capacity: capacity, threshold: threshold, rng: newRNG(seed)}
}

// Name implements Policy.
func (r *Reservoir) Name() string { return string(ReservoirKind) }

// Put implements Policy, following Algorithm 1 lines 19–29: it refuses
// (the producer waits) while unseen samples alone fill the capacity, evicts
// one random seen sample if the buffer is full, then appends the new sample
// to the unseen list.
func (r *Reservoir) Put(s Sample) bool {
	if r.capacity > 0 && len(r.notSeen) >= r.capacity {
		return false // block until one element gets seen
	}
	if r.capacity > 0 && len(r.notSeen)+len(r.seen) >= r.capacity {
		// Evict one seen element at random to make room.
		r.seen = r.evict(r.seen, r.rng.IntN(len(r.seen)))
	}
	r.notSeen = append(r.notSeen, s)
	return true
}

// evict discards list[i] on Put, reporting it to the onEvict hook before
// its storage is forgotten.
func (r *Reservoir) evict(list []Sample, i int) []Sample {
	if r.onEvict != nil {
		r.onEvict(list[i])
	}
	return removeAt(list, i)
}

// removeAt swap-removes list[i], clearing the vacated slot.
func removeAt(list []Sample, i int) []Sample {
	last := len(list) - 1
	list[i] = list[last]
	list[last] = Sample{}
	return list[:last]
}

// TryGet implements Policy, following Algorithm 1 lines 1–18. Selection is
// uniform over seen+unseen, with replacement: a selected unseen sample
// migrates to the seen list (unless reception is over, in which case the
// buffer is draining); a selected seen sample is returned again, or removed
// while draining.
func (r *Reservoir) TryGet() (Sample, bool) {
	total := len(r.seen) + len(r.notSeen)
	if total == 0 {
		return Sample{}, false
	}
	if !r.over && total <= r.threshold {
		// Ensure there are enough data for diverse batches and to avoid
		// over-representing the very first time steps.
		return Sample{}, false
	}
	index := r.rng.IntN(total)
	var item Sample
	if index < len(r.notSeen) {
		item = r.notSeen[index]
		r.notSeen = removeAt(r.notSeen, index)
		if !r.over {
			r.seen = append(r.seen, item)
		}
	} else {
		i := index - len(r.notSeen)
		item = r.seen[i]
		if r.over {
			// Empty the buffer: after reception, every selection deletes.
			r.seen = removeAt(r.seen, i)
		}
	}
	return item, true
}

// EndReception implements Policy: the threshold gate is lifted and the
// buffer switches to draining behaviour.
func (r *Reservoir) EndReception() { r.over = true }

// ReceptionOver implements Policy.
func (r *Reservoir) ReceptionOver() bool { return r.over }

// Len implements Policy.
func (r *Reservoir) Len() int { return len(r.seen) + len(r.notSeen) }

// Capacity implements Policy.
func (r *Reservoir) Capacity() int { return r.capacity }

// Drained implements Policy.
func (r *Reservoir) Drained() bool { return r.over && r.Len() == 0 }

// SeenCount implements PopulationCounter.
func (r *Reservoir) SeenCount() int { return len(r.seen) }

// UnseenCount implements PopulationCounter.
func (r *Reservoir) UnseenCount() int { return len(r.notSeen) }
