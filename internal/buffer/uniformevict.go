package buffer

import "math/rand/v2"

// UniformEvict is an ablation of the Reservoir's key design choice: when
// the buffer is full, it evicts a uniformly random element — seen or not —
// instead of protecting unseen samples. It is otherwise identical to the
// Reservoir (uniform selection with replacement, threshold gate, drain on
// end of reception). The paper argues the seen-only eviction "avoids
// discarding any unseen data"; this policy quantifies what that protection
// buys (see the eviction ablation in internal/experiments).
type UniformEvict struct {
	capacity  int
	threshold int
	seen      []Sample
	notSeen   []Sample
	rng       *rand.Rand
	over      bool
	dropped   int
	onEvict   func(Sample)
}

// setOnEvict implements evictNotifier: fn observes every sample Put
// discards internally, before its storage may be reused.
func (u *UniformEvict) setOnEvict(fn func(Sample)) { u.onEvict = fn }

// UniformEvictKind selects the ablation policy in a Config.
const UniformEvictKind Kind = "UniformEvict"

// NewUniformEvict builds the ablation policy.
func NewUniformEvict(capacity, threshold int, seed uint64) *UniformEvict {
	return &UniformEvict{capacity: capacity, threshold: threshold, rng: newRNG(seed)}
}

// Name implements Policy.
func (u *UniformEvict) Name() string { return string(UniformEvictKind) }

// Put implements Policy: a full buffer evicts a uniformly random resident,
// which may be an unseen sample — that sample is then lost to training
// forever.
func (u *UniformEvict) Put(s Sample) bool {
	if u.capacity > 0 && u.Len() >= u.capacity {
		total := u.Len()
		i := u.rng.IntN(total)
		if i < len(u.notSeen) {
			if u.onEvict != nil {
				u.onEvict(u.notSeen[i])
			}
			last := len(u.notSeen) - 1
			u.notSeen[i] = u.notSeen[last]
			u.notSeen[last] = Sample{}
			u.notSeen = u.notSeen[:last]
			u.dropped++ // an unseen sample was discarded
		} else {
			i -= len(u.notSeen)
			if u.onEvict != nil {
				u.onEvict(u.seen[i])
			}
			last := len(u.seen) - 1
			u.seen[i] = u.seen[last]
			u.seen[last] = Sample{}
			u.seen = u.seen[:last]
		}
	}
	u.notSeen = append(u.notSeen, s)
	return true
}

// TryGet implements Policy with the Reservoir's selection semantics.
func (u *UniformEvict) TryGet() (Sample, bool) {
	total := u.Len()
	if total == 0 {
		return Sample{}, false
	}
	if !u.over && total <= u.threshold {
		return Sample{}, false
	}
	index := u.rng.IntN(total)
	var item Sample
	if index < len(u.notSeen) {
		item = u.notSeen[index]
		last := len(u.notSeen) - 1
		u.notSeen[index] = u.notSeen[last]
		u.notSeen[last] = Sample{}
		u.notSeen = u.notSeen[:last]
		if !u.over {
			u.seen = append(u.seen, item)
		}
	} else {
		i := index - len(u.notSeen)
		item = u.seen[i]
		if u.over {
			last := len(u.seen) - 1
			u.seen[i] = u.seen[last]
			u.seen[last] = Sample{}
			u.seen = u.seen[:last]
		}
	}
	return item, true
}

// EndReception implements Policy.
func (u *UniformEvict) EndReception() { u.over = true }

// ReceptionOver implements Policy.
func (u *UniformEvict) ReceptionOver() bool { return u.over }

// Len implements Policy.
func (u *UniformEvict) Len() int { return len(u.seen) + len(u.notSeen) }

// Capacity implements Policy.
func (u *UniformEvict) Capacity() int { return u.capacity }

// Drained implements Policy.
func (u *UniformEvict) Drained() bool { return u.over && u.Len() == 0 }

// SeenCount implements PopulationCounter.
func (u *UniformEvict) SeenCount() int { return len(u.seen) }

// UnseenCount implements PopulationCounter.
func (u *UniformEvict) UnseenCount() int { return len(u.notSeen) }

// DroppedUnseen reports how many never-trained samples were evicted — the
// data loss the real Reservoir is designed to avoid.
func (u *UniformEvict) DroppedUnseen() int { return u.dropped }
