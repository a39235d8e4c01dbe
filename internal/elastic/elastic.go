// Package elastic makes the multi-process training group survive rank
// death: an epoch-numbered membership controller (Coordinator) plus a
// per-rank member runtime (Member) that together detect failures, re-form
// the TCP ring over the survivors, roll every rank back to the last group
// checkpoint, and let a restarted rank rejoin at a later epoch.
//
// The paper treats fault tolerance as a first-class property of the
// framework — heartbeats, checkpointing and restart keep an ensemble run
// alive on real clusters (§3.1) — and this package extends that guarantee
// from the ingestion side to the data-parallel training group itself.
//
// # Protocol
//
// Group life is divided into epochs, each with a fixed membership and one
// TCP ring. The coordinator owns the epoch counter and a TCP control
// plane; every member keeps one control connection to it.
//
//	member                      coordinator
//	  │ ── hello{id} ─────────────▶ │  (collect until the initial world
//	  │ ◀─ prepare{epoch} ───────── │   is complete, or a rejoin/fault
//	  │ ── join{id,epoch,addr} ───▶ │   triggers a new formation round)
//	  │ ◀─ config{epoch,members,   │
//	  │        addrs,restoreBatch}  │
//	  │    … forms ring, restores   │
//	  │      shard, trains …        │
//	  │ ── shard{id,epoch,batch} ─▶ │  (manifest commits at min batch)
//	  │ ── done{epoch} ───────────▶ │  or fault{epoch} on a link failure
//	  │ ◀─ stop ─────────────────── │  (when every member reported done)
//
// Failure detection is layered: the ring's link heartbeats surface a dead
// or partitioned peer to the survivors as a collective error within one IO
// timeout (they report fault), and the dead member's control connection
// drops at the coordinator. Either signal starts a new formation round:
// the coordinator bumps the epoch, sends prepare (which makes every
// member abort its current ring mid-collective if necessary), collects
// fresh ring listener addresses, and distributes the new configuration
// with the rollback point — the batch of the last committed group
// checkpoint manifest. A restarted member simply connects and says hello;
// inclusion in the next epoch is the rejoin path.
//
// # Group checkpoints
//
// Each member writes its own shard (weights, optimizer slab, counters and
// the application's payload, e.g. its buffer snapshot — see State)
// atomically at a batch boundary, tagged
// with the epoch, and reports it. The coordinator commits a manifest at
// batch B once every current member has a shard at B, making B the
// group-wide rollback point; shards past the manifest are purged during
// reconfiguration so a stale future shard can never be restored. On
// restore, a member takes weights/optimizer/counters from the shard at
// the manifest batch (its own, or ring-order-first peer's when it was
// absent at B) and its buffer contents from its own newest shard at or
// before B — so a rejoiner resumes with exactly the training data it held
// when it last checkpointed. Because every restore source is a bitwise
// snapshot of a deterministic trajectory, a faulted-and-recovered run
// finishes with weights bit-identical to an unfaulted run of the same
// effective schedule (pinned by this package's tests).
//
// A member without a coordinator is a group of one: it forms its one epoch
// locally, restores from its newest shard and commits a shard by writing it.
package elastic

import (
	"errors"
	"time"
)

// ctrlKind discriminates control-plane messages.
type ctrlKind int

const (
	kindHello   ctrlKind = iota + 1 // member → coordinator: I exist
	kindJoin                        // member → coordinator: ready for epoch, ring addr attached
	kindFault                       // member → coordinator: my ring epoch died
	kindShard                       // member → coordinator: shard written at batch
	kindDone                        // member → coordinator: epoch finished cleanly
	kindPrepare                     // coordinator → member: abort ring, rebind, join epoch
	kindConfig                      // coordinator → member: epoch configuration
	kindStop                        // coordinator → member: group complete
	kindCommit                      // coordinator → member: manifest committed at batch
)

// ctrlMsg is the single gob-encoded control-plane message shape; Kind
// selects which fields are meaningful.
type ctrlMsg struct {
	Kind  ctrlKind
	ID    int    // sender member ID (hello/join/fault/shard/done)
	Epoch int    // epoch the message refers to
	Addr  string // join: the member's fresh ring listener address
	Batch int    // shard: checkpoint batch; config: restore batch (-1 = fresh); commit: manifest batch

	// Config payload: member IDs in ring order and their ring addresses.
	Members []int
	Addrs   []string
}

// ErrKilled is returned by Member.Run after Kill — the in-process
// equivalent of the rank process dying.
var ErrKilled = errors.New("elastic: member killed")

const (
	defaultFormTimeout    = 15 * time.Second
	defaultConnectTimeout = 10 * time.Second
	ctrlWriteTimeout      = 5 * time.Second
)
