package tensor

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"melissa/internal/testwait"
)

// withChunks runs f with every fan-out on a team forced to the given number
// of chunks, whatever its work.
func withChunks(chunks int, f func()) {
	old := forceChunks
	forceChunks = chunks
	defer func() { forceChunks = old }()
	f()
}

// helperGoroutines counts team helpers, started or not yet scheduled.
func helperGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by melissa/internal/tensor.(*Team).parallel"))
}

// TestFanOutBitEqual is the chunking claim, checked at every kernel level:
// each kernel that fans out writes on a team the bytes it writes inline,
// for 1–7 chunks forced at shapes far below the thresholds. The skinny a·b
// runs with and without a column tail (n % 16 ≠ 0), over one and two k-slabs,
// under every epilogue; the skinny a·bᵀ with n % 4 ≠ 0, so its last row
// group is moved back over the one before, and with fewer rows of b than a
// group; the blocked a·b past skinnyM rows, over two column tiles; the
// shared-B dW with several row and column tiles; the naive kernels below
// naiveMaxWork; and AdamStep with chunk ends off the 8-lane grid. A -short
// run forces 1, 2, 3 and 7 chunks.
func TestFanOutBitEqual(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	tm := NewTeam(3)
	t.Cleanup(tm.Close)
	chunkCounts := []int{1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		chunkCounts = []int{1, 2, 3, 7}
	}
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(26, 27))
		// check runs f inline into one slab and on the team, at every chunk
		// count, into another, both starting from the same random bytes.
		check := func(what string, size int, f func(tm *Team, out []float32)) {
			t.Helper()
			seed := randMatrix(rng, 1, size).Data
			want := append([]float32(nil), seed...)
			f(nil, want)
			for _, chunks := range chunkCounts {
				got := append([]float32(nil), seed...)
				withChunks(chunks, func() { f(tm, got) })
				if !bitsEqual(got, want) {
					t.Fatalf("%s, %d chunks: differs from the inline run", what, chunks)
				}
			}
		}
		ks := []int{7, blockK + 44}
		if softwareFMA() {
			ks = ks[:1]
		}
		for _, k := range ks {
			for _, m := range []int{1, 5, 10, 13, skinnyM, skinnyM + 8} {
				for _, n := range []int{21, 48, 50, 300} {
					a, b, bias := randMatrix(rng, m, k), randMatrix(rng, k, n), randMatrix(rng, 1, n).Data
					for _, ep := range []Epilogue{EpNone, EpBias, EpBiasReLU} {
						check(fmt.Sprintf("a·b %dx%dx%d epilogue %d", m, k, n, ep), m*n, func(tm *Team, out []float32) {
							tm.MatMulEpilogue(FromSlice(m, n, out), a, b, bias, ep)
						})
					}
				}
				for _, n := range []int{1, 3, 6, 21, 50} {
					a, bt := randMatrix(rng, m, k), randMatrix(rng, n, k)
					check(fmt.Sprintf("a·bᵀ %dx%dx%d", m, k, n), m*n, func(tm *Team, out []float32) {
						tm.MatMulABT(FromSlice(m, n, out), a, bt)
					})
				}
			}
		}
		for _, sh := range [][3]int{{10, 130, 300}, {3, 70, 17}, {2, 10, 20}} {
			k, m, n := sh[0], sh[1], sh[2]
			x, dy := randMatrix(rng, k, m), randMatrix(rng, k, n)
			check(fmt.Sprintf("dW %dx%dx%d", m, k, n), m*n, func(tm *Team, out []float32) {
				tm.MatMulATBAdd(FromSlice(m, n, out), x, dy)
			})
		}
		for _, n := range []int{1, 9, 1003} {
			for _, chunks := range chunkCounts[1:] {
				withChunks(chunks, func() { checkAdamImpls(t, tm.AdamStep, (*Team)(nil).AdamStep, 28, n, 3) })
			}
		}
	})
}

// TestFanOutHelpersPark starts a team's helpers with one fan-out and
// requires both to park once the spin window has passed with no work, then
// to come back for the next fan-out and park again, and to be gone when
// Close returns.
func TestFanOutHelpersPark(t *testing.T) {
	before := helperGoroutines()
	tm := NewTeam(3)
	rng := rand.New(rand.NewPCG(3, 4))
	a, b := randMatrix(rng, 10, 64), randMatrix(rng, 64, 96)
	want, got := New(10, 96), New(10, 96)
	MatMul(want, a, b)
	for round := 0; round < 2; round++ {
		withChunks(6, func() { tm.MatMulEpilogue(got, a, b, nil, EpNone) })
		if !bitsEqual(got.Data, want.Data) {
			t.Fatalf("round %d: fan-out differs from the inline product", round)
		}
		if n := helperGoroutines() - before; n != 2 {
			t.Fatalf("round %d: %d helpers running, want 2", round, n)
		}
		testwait.Until(t, "both helpers to park", func() bool { return tm.sleeping.Load() == 2 })
	}
	tm.Close()
	if n := helperGoroutines() - before; n != 0 {
		t.Fatalf("%d helpers still running after Close", n)
	}
	withChunks(6, func() { tm.MatMulEpilogue(got, a, b, nil, EpNone) }) // a closed team runs inline
	if !bitsEqual(got.Data, want.Data) {
		t.Fatal("closed team: product differs from the inline one")
	}
}

// TestFanOutBesideTeamless runs an owner fanning out on its team beside
// another goroutine that runs the same kernels with no team — and, against
// the owner rule, on the owner's team, which must fall back to inline, not
// wait. Neither may block the other, and every product must be the inline
// one's bytes.
func TestFanOutBesideTeamless(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	tm := NewTeam(2)
	t.Cleanup(tm.Close)
	rng := rand.New(rand.NewPCG(5, 6))
	a, b, bias := randMatrix(rng, 10, 200), randMatrix(rng, 200, 90), randMatrix(rng, 1, 90).Data
	want := New(10, 90)
	MatMulBiasReLU(want, a, b, bias)
	run := func(tm *Team) error {
		got := New(10, 90)
		for i := 0; i < 300; i++ {
			tm.MatMulEpilogue(got, a, b, bias, EpBiasReLU)
			if !bitsEqual(got.Data, want.Data) {
				return fmt.Errorf("iteration %d: differs from the inline product", i)
			}
		}
		return nil
	}
	withChunks(5, func() {
		owner := make(chan error, 1)
		go func() { owner <- run(tm) }()
		if err := testwait.Run(t, "the team-less caller", func() error {
			if err := run(nil); err != nil {
				return err
			}
			return run(tm)
		}); err != nil {
			t.Fatal(err)
		}
		if err := testwait.Recv(t, owner, "the owner's fan-outs"); err != nil {
			t.Fatal(err)
		}
	})
}
