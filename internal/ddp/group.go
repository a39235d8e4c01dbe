package ddp

// GroupIdentity encodes the hierarchical topology into a ring handshake
// identity (transport.RingOptions.Identity), so two processes that
// disagree on -ranks fail at ring formation instead of exchanging
// misaligned collective chunks.
func GroupIdentity(localRanks int) uint32 { return uint32(localRanks) }
