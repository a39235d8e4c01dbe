package buffer

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPolicyKeySequenceDigest drives every kind through one fixed-seed op
// script that overfills the buffer, extracts, round-trips a snapshot, ends
// reception and drains, and pins a digest of what every Put and TryGet
// returned. A reordered or extra RNG draw, or a changed full-buffer or
// keep rule, changes the digest.
func TestPolicyKeySequenceDigest(t *testing.T) {
	// Digests of the per-kind types Policy replaced; a new value here is a
	// change of behaviour, not of implementation.
	want := map[Kind]uint64{
		FIFOKind:         0x79544fce064a7616,
		FIROKind:         0xb299be97a6d1631e,
		ReservoirKind:    0xb9e674e1b8b7e15c,
		UniformEvictKind: 0x22406235902cd3bd,
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			p, err := New(Config{Kind: kind, Capacity: 16, Threshold: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			note := func(op byte, k Key) { fmt.Fprintf(h, "%c%d.%d ", op, k.SimID, k.Step) }
			for i := 0; i < 120; i++ {
				s := mkSample(i%5, i)
				if p.Put(s) {
					note('+', s.Key())
				} else {
					note('x', s.Key())
				}
				if i%3 == 2 {
					if s, ok := p.TryGet(); ok {
						note('-', s.Key())
					}
				}
				if i == 60 {
					p.RestoreSnapshot(p.Snapshot())
				}
			}
			p.EndReception()
			for {
				s, ok := p.TryGet()
				if !ok {
					break
				}
				note('-', s.Key())
			}
			if got := h.Sum64(); got != want[kind] {
				t.Fatalf("key-sequence digest %#x, want %#x", got, want[kind])
			}
		})
	}
}
