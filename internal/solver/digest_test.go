package solver

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// fieldDigest runs a member to its last step and returns the FNV-64a digest
// of every step's field bits, little-endian, in step order.
func fieldDigest(t *testing.T, cfg Config, par Params) uint64 {
	t.Helper()
	s, err := New(cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	err = s.Run(func(_ int, field []float64) {
		for _, v := range field {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestFieldDigestPinned pins the field bits of two members to digests
// computed before the solver had assembly kernels, so a kernel that changed
// the bits — on every CPU alike, which FuzzCGKernels cannot see — fails
// here. The default member is a client's 32×32 grid; the 7×7 one runs every
// edge row and edge column with short rows and tails. Every step's field is
// hashed, the early transient with its long CG solves included. Both the
// kernels this CPU runs and the portable loops must give the pinned bits.
func TestFieldDigestPinned(t *testing.T) {
	defer func(k kernels) { kern = k }(kern)
	for _, ks := range []struct {
		name string
		k    kernels
	}{{"active", kern}, {"portable", portable}} {
		kern = ks.k
		checkDigests(t, ks.name)
	}
}

func checkDigests(t *testing.T, set string) {
	odd := DefaultConfig()
	odd.N, odd.Dt, odd.Steps = 7, 0.05, 40
	for _, tc := range []struct {
		name string
		cfg  Config
		par  Params
		want uint64
	}{
		{"default", DefaultConfig(), Params{TIC: 300, Tx1: 100, Tx2: 500, Ty1: 200, Ty2: 400}, 0x05e7d05c003ddd6b},
		{"N7", odd, Params{TIC: 137.5, Tx1: 480, Tx2: 101, Ty1: 333, Ty2: 250}, 0x30b2492897a3a069},
	} {
		if got := fieldDigest(t, tc.cfg, tc.par); got != tc.want {
			t.Errorf("%s kernels, %s: field digest %#016x, want %#016x", set, tc.name, got, tc.want)
		}
	}
}
