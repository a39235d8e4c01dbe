package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/elastic"
	"melissa/internal/telemetry"
	"melissa/internal/transport"
)

// ElasticConfig places the server in an elastic training group: membership
// is managed by an elastic coordinator, a fresh hierarchical communicator is
// formed per group epoch, and a rank death rolls every survivor back to
// the last committed group checkpoint — without dropping the client
// connections or the ingest state behind them. The server's per-rank
// dedup bitsets and buffer contents (ingestState) ride the group-checkpoint
// shards, so ingestion rolls back on exactly the same boundary as the
// replica weights.
type ElasticConfig struct {
	// MemberID is this process's stable identity across restarts. It also
	// pins the process's slice of the data plane: its ranks serve global
	// data ranks [MemberID·Ranks, MemberID·Ranks+Ranks).
	MemberID int
	// Coordinator is the control-plane address of elastic.Coordinator. The
	// group's checkpoint directory (shards + manifest) is
	// Config.CheckpointDir.
	Coordinator string
	// BindAddr is the ring listener bind pattern (default "127.0.0.1:0").
	BindAddr string
	// ConnectTimeout bounds per-epoch ring formation (default 10s).
	ConnectTimeout time.Duration
	// InitialMembers is the data-plane group size in member processes.
	// Client round-robin routing and reception accounting run over the
	// stable data world of InitialMembers·Ranks global ranks, regardless
	// of how the training group shrinks or re-forms: a member keeps its
	// data ranks for the whole run, while its training-group offset
	// (Session.Comm) shifts with the surviving membership each epoch.
	InitialMembers int
	// RingOptions, when set, supplies every epoch's ring options. Its Codec
	// is the gradient wire codec — the only place it is set: the handshake
	// refuses a peer whose codec differs, so survivors of a re-formation
	// keep compressing as before and a member restarted with another codec
	// fails ring formation. The rest is tuning (IO timeout, heartbeat
	// cadence, chaos wrapper).
	RingOptions func(epoch int) transport.RingOptions
}

func (ec *ElasticConfig) validate() error {
	if ec.Coordinator == "" {
		return fmt.Errorf("server: elastic: coordinator address required")
	}
	if ec.InitialMembers < 1 {
		return fmt.Errorf("server: elastic: InitialMembers=%d must be ≥ 1", ec.InitialMembers)
	}
	if ec.MemberID < 0 || ec.MemberID >= ec.InitialMembers {
		return fmt.Errorf("server: elastic: MemberID=%d outside data world of %d members", ec.MemberID, ec.InitialMembers)
	}
	return nil
}

// retireJournal is one rank's replay log: every sample that permanently
// left the rank's buffer through training (buffer.Blocking.OnRetire) is
// deep-copied here in consumption order, and a mark records the journal
// position at each group-checkpoint boundary. On a rollback to batch B the
// entries after mark[B] are exactly the samples the rank consumed beyond
// the checkpoint — prepending them to the live buffer contents rebuilds
// the rank's FIFO stream bit-exactly without asking clients to resend.
// Entries before the committed manifest can never be replayed again and
// are pruned on the coordinator's commit notification.
type retireJournal struct {
	mu      sync.Mutex
	base    int             // absolute position of entries[0]
	entries []buffer.Sample // heap-owned deep copies, consumption order
	marks   map[int]int     // batch boundary → absolute journal position
}

func newRetireJournal() *retireJournal {
	return &retireJournal{marks: make(map[int]int)}
}

// record appends a retired sample. It runs under the buffer lock (OnRetire
// contract), so the payload must be copied before the arena row is reused.
func (j *retireJournal) record(s buffer.Sample) {
	cp := buffer.Sample{
		SimID:  s.SimID,
		Step:   s.Step,
		Input:  append([]float32(nil), s.Input...),
		Output: append([]float32(nil), s.Output...),
	}
	j.mu.Lock()
	j.entries = append(j.entries, cp)
	j.mu.Unlock()
}

// mark records the current journal position for a batch boundary. Call at
// the step boundary, after the boundary's retires (Server.captureIngest
// does).
func (j *retireJournal) mark(batch int) {
	j.mu.Lock()
	j.marks[batch] = j.base + len(j.entries)
	j.mu.Unlock()
}

// prune drops entries before the committed batch's mark: the group can
// never roll back past a committed manifest, so they are dead weight. Runs
// on the control-plane reader goroutine (Member.OnCommit).
func (j *retireJournal) prune(batch int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	m, ok := j.marks[batch]
	if !ok || m <= j.base {
		return
	}
	j.entries = append([]buffer.Sample(nil), j.entries[m-j.base:]...)
	j.base = m
	for b := range j.marks {
		if b < batch {
			delete(j.marks, b)
		}
	}
}

// replayAndRewind returns the entries consumed after batch's mark and
// rewinds the journal to it: the replayed samples go back into the buffer,
// will be consumed again, and re-journal themselves. Marks past the
// rollback point are stale trajectory and dropped.
func (j *retireJournal) replayAndRewind(batch int) []buffer.Sample {
	j.mu.Lock()
	defer j.mu.Unlock()
	m, ok := j.marks[batch]
	if !ok {
		// No mark: the journal started after this boundary (the rank
		// restored at it), so everything recorded since is post-batch.
		m = j.base
	}
	cut := m - j.base
	if cut < 0 {
		cut = 0
	}
	out := append([]buffer.Sample(nil), j.entries[cut:]...)
	j.entries = j.entries[:cut]
	for b := range j.marks {
		if b > batch {
			delete(j.marks, b)
		}
	}
	j.marks[batch] = m
	return out
}

// runEpoch is the member's per-epoch callback and the one place that
// restores: ingest + replica state at the epoch's rollback point, then train
// over the epoch's communicator, every boundary written as the member's
// shard. A lone process runs it once, as a group of one.
func (s *Server) runEpoch(ctx context.Context, sess *elastic.Session) error {
	tel := s.metrics.Telemetry()
	tel.Set(telemetry.GroupEpoch, sess.Epoch())

	var restored *elastic.State
	if sess.RestoreBatch() >= 0 {
		st, err := sess.LoadState()
		if err != nil {
			return err
		}
		restored = st
		if s.live {
			// Survivor: dedup bitsets stay live (replayed client frames
			// must still be judged duplicates), the buffers rewind through
			// the replay journal.
			s.rollbackIngest(st.Batch)
		} else {
			if err := s.restoreIngest(st); err != nil {
				return err
			}
			fmt.Printf("server: resumed from checkpoint batch %d\n", st.Batch)
		}
	}
	if s.live {
		// Any later epoch a live member enters is a re-formation — with a
		// rollback when a group checkpoint was committed, without one when
		// the failure hit before the first commit.
		rb := -1
		if restored != nil {
			rb = restored.Batch
		}
		tel.Add(telemetry.Reforms, 1)
		// The previous epoch's trainer returned when the failure reached it.
		tel.Record(telemetry.Event{Kind: telemetry.Reform, Epoch: sess.Epoch(), Batch: rb, Took: tel.Since(telemetry.Finished)})
	}
	s.startAggs()
	s.live = true

	return s.train(ctx, sess, restored)
}

// rollbackIngest rewinds every rank's buffer to a group-checkpoint batch:
// the samples consumed beyond it (replay journal) go back in front of the
// live contents, reconstructing the rank's exact sample stream, while
// newly arriving frames keep appending behind. Dedup state is untouched.
func (s *Server) rollbackIngest(batch int) {
	for r := range s.bufs {
		replay := s.journals[r].replayAndRewind(batch)
		s.bufs[r].ReplaceContents(func(seen, unseen []buffer.Sample) ([]buffer.Sample, []buffer.Sample) {
			return seen, append(replay, unseen...)
		})
	}
}
