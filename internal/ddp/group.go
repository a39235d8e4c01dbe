package ddp

import (
	"fmt"

	"melissa/internal/transport"
)

// RankSpan is implemented by communicators that serve a fixed contiguous
// span of global ranks per endpoint (Comm). Consumers use it to reject
// configurations that would drive an endpoint from ranks it does not own.
type RankSpan interface {
	// RankOffset returns the first global rank the endpoint serves.
	RankOffset() int
	// LocalRanks returns how many consecutive global ranks it serves.
	LocalRanks() int
}

// RankGroup binds a communicator to the contiguous block of global ranks
// one process drives: local rank l of the process is global rank Offset+l
// on Comm. It is the single handle the trainer and server take, so every
// link layout is wired identically. The zero value means "in-process,
// standalone": consumers substitute NewCommunicator of their configured
// rank count.
type RankGroup struct {
	// Comm is the communicator shared by the group. nil means standalone:
	// the consumer creates an in-process communicator sized to its local
	// rank count.
	Comm Communicator
	// Offset is the first global rank this process drives on Comm.
	Offset int
}

// Validate checks that this process may drive local consecutive ranks
// starting at Offset: the span must fit the communicator, and a
// communicator that declares its span (RankSpan) must agree with it.
func (g RankGroup) Validate(local int) error {
	if local <= 0 {
		return fmt.Errorf("ddp: rank group local count %d, want >= 1", local)
	}
	if g.Comm == nil {
		if g.Offset != 0 {
			return fmt.Errorf("ddp: rank offset %d requires an explicit communicator", g.Offset)
		}
		return nil
	}
	if g.Offset < 0 || g.Offset+local > g.Comm.Size() {
		return fmt.Errorf("ddp: ranks [%d,%d) exceed communicator size %d", g.Offset, g.Offset+local, g.Comm.Size())
	}
	if span, ok := g.Comm.(RankSpan); ok {
		if g.Offset != span.RankOffset() || local != span.LocalRanks() {
			return fmt.Errorf("ddp: communicator serves ranks [%d,%d), group configured for [%d,%d)",
				span.RankOffset(), span.RankOffset()+span.LocalRanks(), g.Offset, g.Offset+local)
		}
	}
	return nil
}

// Close releases the group's network resources, when it has any. It must
// not race in-flight collectives; Abort first to interrupt them.
func (g RankGroup) Close() error {
	if c, ok := g.Comm.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Abort poisons the group's communicator, failing in-flight collectives on
// every local rank. Safe to call from any goroutine.
func (g RankGroup) Abort() {
	if a, ok := g.Comm.(interface{ Abort() }); ok {
		a.Abort()
	}
}

// GroupIdentity encodes the hierarchical topology into a ring handshake
// identity (transport.RingOptions.Identity), so two processes that
// disagree on -ranks fail at ring formation instead of exchanging
// misaligned collective chunks.
func GroupIdentity(localRanks int) uint32 { return uint32(localRanks) }

// GroupFromRing wraps a connected inter-process ring as the rank group for
// localRanks consecutive global ranks per process — the one constructor
// behind every multi-process shape. Results are bit-identical to any other
// packing of the same total rank count.
func GroupFromRing(ring *transport.Ring, localRanks int) RankGroup {
	c := NewHierComm(ring, localRanks)
	return RankGroup{Comm: c, Offset: c.RankOffset()}
}
