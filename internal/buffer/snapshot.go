package buffer

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

// Snapshot implements Policy.
func (f *FIFO) Snapshot() (seen, unseen []Sample) {
	return nil, cloneSamples(f.queue[f.head:])
}

// RestoreSnapshot implements Policy. Seen samples are prepended: FIFO has
// no seen state, so they are treated as pending data.
func (f *FIFO) RestoreSnapshot(seen, unseen []Sample) {
	f.queue = append(seen, unseen...)
	f.head = 0
}

// Snapshot implements Policy.
func (f *FIRO) Snapshot() (seen, unseen []Sample) {
	return nil, cloneSamples(f.items)
}

// RestoreSnapshot implements Policy.
func (f *FIRO) RestoreSnapshot(seen, unseen []Sample) {
	f.items = append(seen, unseen...)
}

// Snapshot implements Policy.
func (r *Reservoir) Snapshot() (seen, unseen []Sample) {
	return cloneSamples(r.seen), cloneSamples(r.notSeen)
}

// RestoreSnapshot implements Policy, preserving the seen/unseen split so
// eviction priorities survive a server restart.
func (r *Reservoir) RestoreSnapshot(seen, unseen []Sample) {
	r.seen, r.notSeen = seen, unseen
}
