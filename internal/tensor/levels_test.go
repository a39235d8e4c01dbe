package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
)

// allLevelNames are the kernel levels there are, whatever this machine runs.
var allLevelNames = []string{"portable", "avx2", "avx512"}

// forEachLevel runs f as one subtest per kernel level with that level
// pinned; a level the machine cannot run is skipped, by name, in the log.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	for _, name := range allLevelNames {
		t.Run(name, func(t *testing.T) {
			restore := pinKernelLevel(name)
			if restore == nil {
				t.Skipf("kernel level %s: not supported on this machine", name)
			}
			defer restore()
			f(t)
		})
	}
}

// softwareFMA reports whether the pinned level is the portable one on a
// machine that has better: its fma32 is two orders slower than the
// instruction, and the tests that run at every level shrink their work on it.
func softwareFMA() bool { return kern.name == "portable" && len(levels) > 1 }

// shortOr returns short in a -short run and full otherwise: a loop count
// that -short cuts without dropping a shape class or a kernel level.
func shortOr(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

// keepRows reports whether a test that sweeps the row counts 1…40 runs m.
// A -short run keeps every tail of the 12-row kernel's 4-, 8- and 12-row
// loops and one row past them (1…13), both sides of the skinny bound
// (31…33) and the last count (40); a full run keeps them all.
func keepRows(m int) bool {
	return !testing.Short() || m <= 13 || (m >= skinnyM-1 && m <= skinnyM+1) || m == 40
}

// TestKernelLevel logs the level the process selected and the ones the
// machine can run, so a -v log says whether the ZMM paths were exercised.
func TestKernelLevel(t *testing.T) {
	var can []string
	for _, l := range levels {
		can = append(can, l.name)
	}
	t.Logf("kernel level %s selected, of %v", kern.name, can)
	if kern.name != levels[len(levels)-1].name {
		t.Fatalf("active level %s is not the highest supported", kern.name)
	}
}

// sameFloat is bit equality with every NaN folded onto one: which of two
// NaN operands an instruction hands on is the one freedom the kernels have.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// TestKernelLevelsBitEqual is the by-construction claim, checked: every
// GEMM entry point produces the same bytes at every kernel level the
// machine runs. Rows 1…40 cross the 4-, 8- and 12-row loops, the skinny
// bound and the blocked driver's row tails; n comes with and without a
// 16-column tail (and under four rows of b, for the dots); k takes every
// k&7 and one value past a blockK slab; b is read in place (ldb = n) by the
// skinny driver and packed (ldb = 16) under the blocked mode; and half the
// operands carry NaN, ±Inf, subnormals and values whose products overflow.
// The assembly levels agree to the byte. The portable loops — software
// fma32, two orders slower, so they join on the small products only — are
// compared with the lowest assembly level and may hand on a NaN of another
// sign (Go picks the operand order of its scalar adds), the freedom
// sameFloat folds.
func TestKernelLevelsBitEqual(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	for _, name := range allLevelNames[len(levels):] {
		t.Logf("kernel level %s: not supported on this machine, skipped", name)
	}
	if len(levels) < 2 {
		t.Skip("one kernel level on this machine: nothing to compare")
	}
	old := kern
	defer func() { kern = old }()

	inf := float32(math.Inf(1))
	special := []float32{float32(math.NaN()), inf, -inf, 0x1p-149, -0x1p-140, 0x1p-126, math.MaxFloat32, 0, float32(math.Copysign(0, -1))}
	rng := rand.New(rand.NewPCG(61, 62))
	operand := func(rows, cols int, odd bool) *Matrix {
		x := New(rows, cols)
		for i := range x.Data {
			switch {
			case odd && rng.IntN(16) == 0:
				x.Data[i] = special[rng.IntN(len(special))]
			case odd && rng.IntN(8) == 0:
				x.Data[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(250)-125))
			default:
				x.Data[i] = float32(rng.NormFloat64())
			}
		}
		return x
	}
	forms := []string{"MatMul", "MatMulBias", "MatMulBiasReLU", "MatMulABT", "MatMulATBAdd"}
	for m := 1; m <= 40; m++ {
		if !keepRows(m) {
			continue
		}
		modes := []gemmModeT{gemmAuto}
		if m%6 == 1 || m == 12 || m == 40 { // the blocked driver's row tails: 1, 3 and 0 of a panel
			modes = append(modes, gemmBlocked)
		}
		for _, n := range []int{1, 3, 16, 21, 48, 50} {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 43, blockK + 5} {
				if k > blockK && n != 21 {
					continue // a second k-slab on one n is enough
				}
				odd := (m+n+k)%2 == 1
				a, b, bt, at := operand(m, k, odd), operand(k, n, odd), operand(n, k, odd), operand(k, m, odd)
				bias, dw0 := operand(1, n, odd).Data, operand(m, n, odd).Data
				// products runs the five forms at the pinned level into one slab.
				products := func() []float32 {
					out := make([]float32, len(forms)*m*n)
					dst := func(i int) *Matrix { return FromSlice(m, n, out[i*m*n:(i+1)*m*n]) }
					for i, form := range forwardForms {
						form.run(dst(i), a, b, bias)
					}
					MatMulABT(dst(3), a, bt)
					copy(dst(4).Data, dw0)
					MatMulATBAdd(dst(4), at, b)
					return out
				}
				for _, gemmMode = range modes {
					kern = levels[1]
					want := products()
					check := func(l kernels, same func(x, y float32) bool) {
						kern = l
						for i, got := range products() {
							if !same(got, want[i]) {
								t.Fatalf("%s %dx%dx%d %s special=%v element %d: %x at %s, %x at %s", forms[i/(m*n)], m, k, n,
									gemmModeNames[gemmMode], odd, i%(m*n), got, l.name, want[i], levels[1].name)
							}
						}
					}
					for _, l := range levels[2:] {
						check(l, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
					}
					// -short keeps every row count, form and mode on the
					// portable level, and one second k-slab (1×261×21).
					if m*n*k <= shortOr(6000, 20000) {
						check(levels[0], sameFloat)
					}
				}
			}
		}
	}
}
