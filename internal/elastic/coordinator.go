package elastic

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"
)

// CoordinatorConfig configures the membership controller.
type CoordinatorConfig struct {
	// Addr is the control-plane listen address (e.g. "127.0.0.1:0").
	Addr string
	// World is the initial group size: the first epoch forms once this
	// many distinct member IDs have connected.
	World int
	// Dir is the group checkpoint directory (shards + manifest), shared
	// with the members.
	Dir string
	// FormTimeout bounds one formation round: a prepared member that has
	// not joined within it is dropped and formation restarts without it.
	// 0 means a 15s default.
	FormTimeout time.Duration
}

// Coordinator is the elastic group's membership controller: it owns the
// epoch counter, detects member death (control-connection drop or an
// explicit fault report), re-forms the ring over the survivors with a
// rollback to the last committed manifest, admits rejoining members, and
// commits group checkpoint manifests as shard reports come in. One
// coordinator serves one training group; members find it via Addr.
type Coordinator struct {
	cfg    CoordinatorConfig
	ln     net.Listener
	events chan coordEvent
	done   chan struct{}
	err    error

	// Observability mirrors of the event loop's state (atomic because the
	// loop owns the real state).
	epochNow    atomic.Int64
	manifestNow atomic.Int64 // committed manifest batch, -1 before any commit
}

// memberConn is one control connection. serial disambiguates an old
// connection's trailing disconnect event from a replacement connection of
// the same member ID (a restarted rank reconnecting).
type memberConn struct {
	id     int
	serial int64
	conn   net.Conn
	enc    *gob.Encoder
}

type coordEvent struct {
	msg  ctrlMsg
	mc   *memberConn
	gone bool // reader terminated (conn dropped)
}

// NewCoordinator starts the control-plane listener and the event loop. If
// Dir already holds a committed manifest, the first epoch restores from it
// (whole-group crash restart); otherwise the first epoch starts fresh.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("elastic: world %d must be ≥ 1", cfg.World)
	}
	if cfg.FormTimeout <= 0 {
		cfg.FormTimeout = defaultFormTimeout
	}
	manifest, haveManifest, err := loadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ln:     ln,
		events: make(chan coordEvent, 64),
		done:   make(chan struct{}),
	}
	c.manifestNow.Store(-1)
	if haveManifest {
		c.manifestNow.Store(int64(manifest.Batch))
	}
	go c.acceptLoop()
	go c.run(manifest, haveManifest)
	return c, nil
}

// Addr returns the control-plane address members dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch returns the current (or forming) group epoch.
func (c *Coordinator) Epoch() int { return int(c.epochNow.Load()) }

// ManifestBatch returns the batch of the last committed group checkpoint
// manifest, or -1 when none has been committed yet.
func (c *Coordinator) ManifestBatch() int { return int(c.manifestNow.Load()) }

// Wait blocks until the group completes (every member of the final epoch
// reported done) or fails, returning the terminal error if any.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close tears the coordinator down; Wait unblocks with whatever state the
// group reached.
func (c *Coordinator) Close() { c.ln.Close() }

func (c *Coordinator) acceptLoop() {
	var serial int64
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		serial++
		mc := &memberConn{serial: serial, conn: conn, enc: gob.NewEncoder(conn)}
		go c.readLoop(mc)
	}
}

// readLoop decodes one member's control stream into the event channel.
// The first message must be hello; everything after is forwarded, and the
// terminal decode error becomes a gone event.
func (c *Coordinator) readLoop(mc *memberConn) {
	dec := gob.NewDecoder(mc.conn)
	var hello ctrlMsg
	if err := dec.Decode(&hello); err != nil || hello.Kind != kindHello {
		mc.conn.Close()
		return
	}
	mc.id = hello.ID
	c.post(coordEvent{msg: hello, mc: mc})
	for {
		var msg ctrlMsg
		if err := dec.Decode(&msg); err != nil {
			c.post(coordEvent{mc: mc, gone: true})
			return
		}
		c.post(coordEvent{msg: msg, mc: mc})
	}
}

func (c *Coordinator) post(ev coordEvent) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

// coordState is the event loop's single-goroutine view of the group.
type coordState struct {
	members      map[int]*memberConn
	epoch        int
	forming      bool
	target       []int          // membership of the current (or forming) epoch
	joins        map[int]string // member → ring addr collected this formation
	shards       map[int]int    // member → latest shard batch on disk
	dones        map[int]bool
	manifest     Manifest
	haveManifest bool
}

// run is the coordinator's event loop. All membership state is confined
// to this goroutine; connection readers only post events.
func (c *Coordinator) run(manifest Manifest, haveManifest bool) {
	st := &coordState{
		members:      make(map[int]*memberConn),
		shards:       make(map[int]int),
		manifest:     manifest,
		haveManifest: haveManifest,
	}
	formTimer := time.NewTimer(time.Hour)
	formTimer.Stop()
	defer formTimer.Stop()

	fail := func(err error) {
		c.err = err
		for _, mc := range st.members {
			mc.conn.Close()
		}
		c.ln.Close()
		close(c.done)
	}

	for {
		select {
		case ev := <-c.events:
			if ev.gone {
				cur, ok := st.members[ev.mc.id]
				if !ok || cur.serial != ev.mc.serial {
					break // a stale connection's trailing event
				}
				delete(st.members, ev.mc.id)
				ev.mc.conn.Close()
				if st.epoch > 0 {
					c.reform(st, formTimer)
				}
				break
			}
			switch ev.msg.Kind {
			case kindHello:
				if old, ok := st.members[ev.mc.id]; ok {
					old.conn.Close() // replaced by the reconnect
				}
				st.members[ev.mc.id] = ev.mc
				if st.epoch == 0 {
					if len(st.members) >= c.cfg.World {
						c.reform(st, formTimer)
					}
				} else {
					// A rejoiner (or a replaced connection): fold it into
					// the group at the next epoch.
					c.reform(st, formTimer)
				}
			case kindJoin:
				if !st.forming || ev.msg.Epoch != st.epoch {
					break // stale formation round
				}
				if _, ok := st.members[ev.msg.ID]; !ok {
					break
				}
				st.joins[ev.msg.ID] = ev.msg.Addr
				if len(st.joins) == len(st.target) {
					c.finishFormation(st, formTimer)
				}
			case kindFault:
				if st.forming || ev.msg.Epoch != st.epoch {
					break // stale: the reconfiguration is already underway
				}
				c.reform(st, formTimer)
			case kindShard:
				if prev, ok := st.shards[ev.msg.ID]; !ok || ev.msg.Batch > prev {
					st.shards[ev.msg.ID] = ev.msg.Batch
				}
				c.tryCommit(st)
			case kindDone:
				if st.forming || ev.msg.Epoch != st.epoch {
					break
				}
				st.dones[ev.msg.ID] = true
				all := true
				for _, id := range st.target {
					if !st.dones[id] {
						all = false
						break
					}
				}
				if all {
					for _, id := range st.target {
						c.send(st, id, ctrlMsg{Kind: kindStop})
					}
					fail(nil)
					return
				}
			}
		case <-formTimer.C:
			if !st.forming {
				break
			}
			// Drop prepared members that never joined and try again with
			// whoever is left.
			for _, id := range st.target {
				if _, joined := st.joins[id]; !joined {
					if mc, ok := st.members[id]; ok {
						mc.conn.Close()
						delete(st.members, id)
					}
				}
			}
			c.reform(st, formTimer)
		case <-c.done:
			return
		}
		select {
		case <-c.done:
			return
		default:
		}
		if len(st.members) == 0 && st.epoch > 0 {
			fail(errors.New("elastic: no members left"))
			return
		}
	}
}

// reform starts a new formation round: bump the epoch, reset the rollback
// point bookkeeping, and ask every connected member to abort its ring and
// rejoin.
func (c *Coordinator) reform(st *coordState, formTimer *time.Timer) {
	st.epoch++
	c.epochNow.Store(int64(st.epoch))
	st.forming = true
	st.joins = make(map[int]string)
	st.dones = make(map[int]bool)
	st.target = st.target[:0]
	for id := range st.members {
		st.target = append(st.target, id)
	}
	sort.Ints(st.target)

	// Roll the on-disk shard state back to the committed manifest: shards
	// past it belong to the discarded trajectory suffix.
	rollback := -1
	if st.haveManifest {
		rollback = st.manifest.Batch
	}
	purgeShardsAbove(c.cfg.Dir, max(rollback, 0))
	for id, b := range st.shards {
		if b > rollback {
			if rollback >= 0 {
				st.shards[id] = rollback
			} else {
				delete(st.shards, id)
			}
		}
	}

	for _, id := range st.target {
		c.send(st, id, ctrlMsg{Kind: kindPrepare, Epoch: st.epoch})
	}
	if !formTimer.Stop() {
		select {
		case <-formTimer.C:
		default:
		}
	}
	formTimer.Reset(c.cfg.FormTimeout)
}

// finishFormation distributes the epoch configuration once every target
// member has joined: ring order is ascending member ID, and the restore
// point is the committed manifest (or -1 for a fresh start).
func (c *Coordinator) finishFormation(st *coordState, formTimer *time.Timer) {
	st.forming = false
	formTimer.Stop()
	restore := -1
	if st.haveManifest {
		restore = st.manifest.Batch
	}
	addrs := make([]string, len(st.target))
	for i, id := range st.target {
		addrs[i] = st.joins[id]
	}
	cfgMsg := ctrlMsg{
		Kind:    kindConfig,
		Epoch:   st.epoch,
		Batch:   restore,
		Members: append([]int(nil), st.target...),
		Addrs:   addrs,
	}
	for _, id := range st.target {
		c.send(st, id, cfgMsg)
	}
}

// tryCommit advances the manifest to the largest batch for which every
// current member has a shard on disk, deletes the shards no restore can
// read any more, then announces the new rollback point to the group
// (kindCommit) so members can drop replay state kept only for rollbacks to
// older boundaries.
func (c *Coordinator) tryCommit(st *coordState) {
	if len(st.target) == 0 {
		return
	}
	lo := -1
	for _, id := range st.target {
		b, ok := st.shards[id]
		if !ok {
			return // a member (e.g. a fresh rejoiner) has no shard yet
		}
		if lo < 0 || b < lo {
			lo = b
		}
	}
	if st.haveManifest && lo <= st.manifest.Batch {
		return
	}
	m := Manifest{Epoch: st.epoch, Batch: lo, Members: append([]int(nil), st.target...)}
	if err := writeManifest(c.cfg.Dir, m); err != nil {
		return // leave the previous manifest as the rollback point
	}
	st.manifest = m
	st.haveManifest = true
	c.manifestNow.Store(int64(m.Batch))
	pruneShardsBelow(c.cfg.Dir, m.Batch)
	for _, id := range st.target {
		c.send(st, id, ctrlMsg{Kind: kindCommit, Epoch: st.epoch, Batch: m.Batch})
	}
}

// send writes a control message to one member with a bounded deadline; a
// failed write is treated as the member's death.
func (c *Coordinator) send(st *coordState, id int, msg ctrlMsg) {
	mc, ok := st.members[id]
	if !ok {
		return
	}
	mc.conn.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	if err := mc.enc.Encode(&msg); err != nil {
		mc.conn.Close() // the reader's gone event handles removal
	}
	mc.conn.SetWriteDeadline(time.Time{})
}
