package buffer

// UniformEvict is an ablation of the Reservoir's key design choice: when
// the buffer is full, it evicts a uniformly random element — seen or not —
// instead of protecting unseen samples. Everything else is the Reservoir's
// (uniform selection with replacement, threshold gate, drain on end of
// reception, snapshots), with the same RNG draws. The paper argues the
// seen-only eviction "avoids discarding any unseen data"; this policy
// quantifies what that protection buys (see the eviction ablation in
// internal/experiments).
type UniformEvict struct {
	Reservoir
	dropped int
}

// UniformEvictKind selects the ablation policy in a Config.
const UniformEvictKind Kind = "UniformEvict"

// NewUniformEvict builds the ablation policy.
func NewUniformEvict(capacity, threshold int, seed uint64) *UniformEvict {
	return &UniformEvict{Reservoir: *NewReservoir(capacity, threshold, seed)}
}

// Name implements Policy.
func (u *UniformEvict) Name() string { return string(UniformEvictKind) }

// Put implements Policy: a full buffer evicts a uniformly random resident,
// which may be an unseen sample — that sample is then lost to training
// forever.
func (u *UniformEvict) Put(s Sample) bool {
	if u.capacity > 0 && u.Len() >= u.capacity {
		if i := u.rng.IntN(u.Len()); i < len(u.notSeen) {
			u.notSeen = u.evict(u.notSeen, i)
			u.dropped++ // an unseen sample was discarded
		} else {
			u.seen = u.evict(u.seen, i-len(u.notSeen))
		}
	}
	u.notSeen = append(u.notSeen, s)
	return true
}

// DroppedUnseen reports how many never-trained samples were evicted — the
// data loss the real Reservoir is designed to avoid.
func (u *UniformEvict) DroppedUnseen() int { return u.dropped }
