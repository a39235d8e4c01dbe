package elastic

// The accessors below are test code: no binary calls them.

// Close tears the coordinator down; Wait unblocks with whatever state the
// group reached.
func (c *Coordinator) Close() { c.ln.Close() }

// World returns the epoch's group size in members. The global training
// rank space is World()·LocalRanks wide; see Comm.
func (s *Session) World() int { return len(s.members) }

// Aborted is closed when the epoch is being torn down (a newer prepare
// arrived, or the member was killed). Application code blocked outside a
// collective must select on it.
func (s *Session) Aborted() <-chan struct{} { return s.aborted }
