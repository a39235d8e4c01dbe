package elastic

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"melissa/internal/atomicfile"
	"melissa/internal/ddp"
	"melissa/internal/transport"
)

// MemberConfig configures one elastic rank.
type MemberConfig struct {
	// ID is the member's stable identity across restarts. Ring rank within
	// an epoch is the member's position in the ascending-ID membership.
	ID int
	// Coordinator is the control-plane address. Empty makes the member a
	// group of one: Run forms its single epoch locally, restoring from the
	// member's newest shard in Dir, and a saved shard is committed as soon
	// as it is written.
	Coordinator string
	// Dir is the shared group checkpoint directory, created if missing.
	// Only a group of one may leave it empty: it then checkpoints nothing.
	Dir string
	// BindAddr is the address pattern for ring listeners (a fresh listener
	// is bound per epoch). Empty means "127.0.0.1:0".
	BindAddr string
	// ConnectTimeout bounds ring formation per epoch; 0 means 10s.
	ConnectTimeout time.Duration
	// LocalRanks is how many consecutive global training ranks this member
	// hosts (0 means 1). Every member of a group must agree — the value is
	// stamped into the ring handshake identity, so a mismatch fails at
	// ring formation. With several local ranks the session's communicator
	// (ddp.Comm) joins them by channel links and only the last one's
	// successor hop crosses the ring.
	LocalRanks int
	// RingOptions, when set, supplies per-epoch ring options (wire codec, IO
	// timeout, heartbeat interval, chaos wrapper). Nil uses transport
	// defaults. The Identity field is overwritten with the topology identity.
	RingOptions func(epoch int) transport.RingOptions
	// Run is the application callback, invoked once per epoch the member
	// participates in. It must watch Session.Aborted (or the collective
	// errors) and return promptly when the epoch is torn down; a nil
	// return reports the epoch's work complete, non-nil reports a fault.
	Run func(ctx context.Context, s *Session) error
	// OnCommit, when set, is invoked whenever the coordinator commits a
	// group checkpoint manifest, with the committed batch. It runs on the
	// control-plane reader goroutine — possibly concurrently with Run —
	// and must return quickly. The elastic server uses it to prune replay
	// journals kept only for rollbacks to older boundaries.
	OnCommit func(batch int)
}

// Member is one elastic rank's runtime: it keeps the control connection to
// the coordinator, forms the per-epoch ring, runs the application
// callback, and handles abort/rejoin transitions. Create with NewMember,
// drive with Run.
type Member struct {
	cfg    MemberConfig
	conn   net.Conn
	enc    *gob.Encoder
	encMu  sync.Mutex
	events chan ctrlMsg

	mu            sync.Mutex
	sess          *Session
	listener      *transport.RingListener
	latestPrepare int // highest prepare epoch seen; sessions at or below it are dead on arrival
	killed        bool
}

// NewMember validates the config. The control connection is established by
// Run.
func NewMember(cfg MemberConfig) (*Member, error) {
	if cfg.Run == nil {
		return nil, errors.New("elastic: member Run callback required")
	}
	if cfg.BindAddr == "" {
		cfg.BindAddr = "127.0.0.1:0"
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = defaultConnectTimeout
	}
	if cfg.LocalRanks <= 0 {
		cfg.LocalRanks = 1
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Member{cfg: cfg, events: make(chan ctrlMsg, 16)}, nil
}

// kill simulates the rank process dying: the ring and control connections
// are closed without any goodbye, and Run returns ErrKilled. The rest of
// the group finds out the way it would with a real process — dead links.
// Only chaos tests kill a member; testchaos reaches it by go:linkname.
func kill(m *Member) {
	m.mu.Lock()
	m.killed = true
	sess := m.sess
	l := m.listener
	m.listener = nil
	conn := m.conn
	m.mu.Unlock()
	if sess != nil {
		sess.abort()
	}
	if l != nil {
		l.Close()
	}
	if conn != nil {
		conn.Close()
	}
}

// Run connects to the coordinator and participates in the group until it
// completes (nil), the member is killed (ErrKilled), the context is
// canceled, or the control plane is lost. A group of one runs its one epoch
// and returns the application's error, or ErrKilled after kill.
func (m *Member) Run(ctx context.Context) error {
	if m.cfg.Coordinator == "" {
		return m.runAlone(ctx)
	}
	conn, err := m.dialCoordinator(ctx)
	if err != nil {
		return fmt.Errorf("elastic: member %d: %w", m.cfg.ID, err)
	}
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		conn.Close()
		return ErrKilled
	}
	m.conn = conn
	m.mu.Unlock()
	defer conn.Close()
	m.enc = gob.NewEncoder(conn)
	if err := m.send(ctrlMsg{Kind: kindHello, ID: m.cfg.ID}); err != nil {
		return fmt.Errorf("elastic: member %d hello: %w", m.cfg.ID, err)
	}
	go m.readLoop(conn)

	for {
		var msg ctrlMsg
		var ok bool
		select {
		case msg, ok = <-m.events:
			if !ok {
				if m.isKilled() {
					return ErrKilled
				}
				return fmt.Errorf("elastic: member %d lost the coordinator", m.cfg.ID)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		switch msg.Kind {
		case kindPrepare:
			if err := m.bindAndJoin(msg.Epoch); err != nil {
				if m.isKilled() {
					return ErrKilled
				}
				return fmt.Errorf("elastic: member %d join epoch %d: %w", m.cfg.ID, msg.Epoch, err)
			}
		case kindConfig:
			m.runEpoch(ctx, msg)
			if m.isKilled() {
				return ErrKilled
			}
		case kindStop:
			return nil
		}
	}
}

// readLoop decodes coordinator messages. Prepare and stop abort the
// current session immediately — before the main loop gets the message —
// so a member wedged in a collective on a dead ring is freed.
func (m *Member) readLoop(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	for {
		var msg ctrlMsg
		if err := dec.Decode(&msg); err != nil {
			m.abortSession(1 << 30)
			close(m.events)
			return
		}
		if msg.Kind == kindPrepare || msg.Kind == kindStop {
			epoch := msg.Epoch
			if msg.Kind == kindStop {
				epoch = 1 << 30
			}
			m.abortSession(epoch)
		}
		if msg.Kind == kindCommit {
			// Commits arrive while the main loop is inside an epoch; they
			// are delivered here so pruning is not deferred to epoch end.
			if m.cfg.OnCommit != nil {
				m.cfg.OnCommit(msg.Batch)
			}
			continue
		}
		select {
		case m.events <- msg:
		default:
			// The main loop is far behind (it only ever queues a handful
			// of messages); drop rather than deadlock the reader. Prepare
			// and stop were already acted upon above.
		}
	}
}

// abortSession tears down any session at an epoch below the given prepare
// epoch, and records the prepare so a session that is still being built
// is aborted the moment it registers.
func (m *Member) abortSession(prepareEpoch int) {
	m.mu.Lock()
	if prepareEpoch > m.latestPrepare {
		m.latestPrepare = prepareEpoch
	}
	sess := m.sess
	m.mu.Unlock()
	if sess != nil && sess.epoch < prepareEpoch {
		sess.abort()
	}
}

// bindAndJoin answers a prepare: bind a fresh ring listener and report
// its address for the new epoch.
func (m *Member) bindAndJoin(epoch int) error {
	m.mu.Lock()
	if old := m.listener; old != nil {
		old.Close()
		m.listener = nil
	}
	m.mu.Unlock()
	l, err := transport.ListenRing(m.cfg.BindAddr)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		l.Close()
		return ErrKilled
	}
	m.listener = l
	m.mu.Unlock()
	return m.send(ctrlMsg{Kind: kindJoin, ID: m.cfg.ID, Epoch: epoch, Addr: l.Addr()})
}

// runEpoch forms the ring for a config, runs the application callback,
// and reports done or fault. Ring-formation failures are reported as
// faults (the coordinator re-forms), not returned — only kill terminates
// the member from here.
func (m *Member) runEpoch(ctx context.Context, cfg ctrlMsg) {
	m.mu.Lock()
	l := m.listener
	m.listener = nil
	m.mu.Unlock()
	if l == nil {
		return // killed, or a stale config with no bound listener
	}
	rank := -1
	for i, id := range cfg.Members {
		if id == m.cfg.ID {
			rank = i
		}
	}
	if rank < 0 {
		l.Close()
		return
	}
	var opts transport.RingOptions
	if m.cfg.RingOptions != nil {
		opts = m.cfg.RingOptions(cfg.Epoch)
	}
	opts.Identity = ddp.GroupIdentity(m.cfg.LocalRanks)
	ring, err := l.ConnectContext(ctx, rank, cfg.Addrs, m.cfg.ConnectTimeout, opts)
	if err != nil {
		m.send(ctrlMsg{Kind: kindFault, ID: m.cfg.ID, Epoch: cfg.Epoch})
		return
	}
	ran, runErr := m.runSession(ctx, cfg.Epoch, cfg.Members, cfg.Batch, ddp.NewHierComm(ring, m.cfg.LocalRanks))
	if !ran || m.isKilled() {
		return
	}
	kind := kindDone
	if runErr != nil {
		kind = kindFault
	}
	m.send(ctrlMsg{Kind: kind, ID: m.cfg.ID, Epoch: cfg.Epoch})
}

// runAlone is a group of one: epoch 0 with this member alone on an
// in-process communicator, restoring from the member's newest shard in Dir.
// No re-formation can follow, so there is one epoch and nobody to report to.
func (m *Member) runAlone(ctx context.Context) error {
	restore := -1
	if m.cfg.Dir != "" {
		if b, ok := latestShardAtOrBefore(m.cfg.Dir, m.cfg.ID, math.MaxInt); ok {
			restore = b
		}
	}
	ran, err := m.runSession(ctx, 0, []int{m.cfg.ID}, restore, ddp.NewCommunicator(m.cfg.LocalRanks))
	if !ran || m.isKilled() {
		return ErrKilled
	}
	return err
}

// runSession registers the epoch's session as the member's current one,
// runs the application on it and retires it. It runs nothing and reports
// false when a kill or a newer prepare made the epoch obsolete first.
func (m *Member) runSession(ctx context.Context, epoch int, members []int, restore int, comm *ddp.Comm) (bool, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sess := &Session{m: m, epoch: epoch, members: members, restore: restore, comm: comm, aborted: make(chan struct{}), cancel: cancel}
	m.mu.Lock()
	dead := m.killed || m.latestPrepare > sess.epoch
	if !dead {
		m.sess = sess
	}
	m.mu.Unlock()
	if dead {
		sess.comm.Close()
		return false, nil
	}

	runErr := m.cfg.Run(ctx, sess)

	m.mu.Lock()
	m.sess = nil
	m.mu.Unlock()
	if runErr != nil {
		// Failed epoch: force-close the links so Close cannot stall
		// flushing frames to a dead peer. On a clean finish the ring must
		// shut down gracefully instead — the peers' final collective may
		// still be draining frames this rank staged, and an abort here
		// would cut them off mid-step.
		sess.abort()
	}
	sess.comm.Close()
	return true, runErr
}

func (m *Member) isKilled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

func (m *Member) send(msg ctrlMsg) error {
	m.encMu.Lock()
	defer m.encMu.Unlock()
	m.conn.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	err := m.enc.Encode(&msg)
	m.conn.SetWriteDeadline(time.Time{})
	return err
}

// dialCoordinator dials the control plane with the ddp retry/backoff
// policy, so members may start before the coordinator.
func (m *Member) dialCoordinator(ctx context.Context) (net.Conn, error) {
	var conn net.Conn
	err := ddp.Retry(ctx, 10, 50*time.Millisecond, func() error {
		d := net.Dialer{Timeout: 2 * time.Second}
		var err error
		conn, err = d.DialContext(ctx, "tcp", m.cfg.Coordinator)
		return err
	})
	return conn, err
}

// Session is one epoch's view of the group, handed to the application
// callback.
type Session struct {
	m       *Member
	epoch   int
	members []int
	restore int
	comm    *ddp.Comm

	aborted   chan struct{}
	abortOnce sync.Once
	cancel    context.CancelFunc
}

// Epoch returns the group epoch this session belongs to.
func (s *Session) Epoch() int { return s.epoch }

// Comm returns the epoch's communicator over LocalRanks local ranks, this
// member's span starting at global rank ring rank · LocalRanks. It is the
// handle trainer configs take. It is poisoned the moment the epoch is torn
// down; collectives then return errors wrapping transport.ErrRingAborted.
func (s *Session) Comm() *ddp.Comm { return s.comm }

// RestoreBatch returns the batch boundary to restore from (the committed
// group checkpoint), or -1 for a fresh start.
func (s *Session) RestoreBatch() int { return s.restore }

// abort tears the epoch down: the aborted channel closes, in-flight
// collectives fail with ErrRingAborted, and the application context is
// canceled (which covers single-member rings, where Abort has no
// connections to close).
func (s *Session) abort() {
	s.abortOnce.Do(func() {
		close(s.aborted)
		s.comm.Abort()
		if s.cancel != nil {
			s.cancel()
		}
	})
}

// SaveShard atomically writes this member's shard of a group checkpoint
// and reports it to the coordinator, which commits a manifest at batch B
// once every member has reported a shard at B. For a group of one the
// write is the commit: the member's older shards are deleted at once.
func (s *Session) SaveShard(st *State) error {
	st.Epoch = s.epoch
	dir := s.m.cfg.Dir
	err := atomicfile.Write(shardPath(dir, s.m.cfg.ID, st.Batch), func(w io.Writer) error { return gob.NewEncoder(w).Encode(st) })
	if err != nil {
		return err
	}
	if s.m.cfg.Coordinator == "" {
		return pruneShardsBelow(dir, st.Batch)
	}
	return s.m.send(ctrlMsg{Kind: kindShard, ID: s.m.cfg.ID, Epoch: s.epoch, Batch: st.Batch})
}

// LoadState resolves this member's restore state at the epoch's rollback
// point: weights, optimizer slab and counters come from the shard at
// RestoreBatch — the member's own if it has one, else the first member's
// in ring order (the rejoin path: a member absent at the checkpoint
// adopts a peer's replica state, which is identical across ranks by
// construction). The application payload comes from the member's own
// newest shard at or before the rollback point; App is nil when it has
// none (the caller keeps its initial fill).
func (s *Session) LoadState() (*State, error) {
	b := s.restore
	if b < 0 {
		return nil, errors.New("elastic: no restore point for a fresh epoch")
	}
	dir := s.m.cfg.Dir
	st, err := loadShard(dir, s.m.cfg.ID, b)
	if errors.Is(err, os.ErrNotExist) {
		for _, id := range s.members {
			if st, err = loadShard(dir, id, b); err == nil {
				break
			} else if !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("elastic: member %d: no shard at batch %d: %w", s.m.cfg.ID, b, err)
	}
	// The weight-source shard may be a peer's; the application payload is
	// only ever the member's own.
	st.App = nil
	if ownB, ok := latestShardAtOrBefore(dir, s.m.cfg.ID, b); ok {
		own, err := loadShard(dir, s.m.cfg.ID, ownB)
		if err != nil {
			return nil, err
		}
		st.App = own.App
	}
	return st, nil
}
