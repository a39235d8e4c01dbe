package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// forceGemmMode runs the test body with the kernel selection pinned,
// restoring the startup mode afterwards.
func forceGemmMode(t *testing.T, mode gemmModeT) {
	t.Helper()
	old := gemmMode
	gemmMode = mode
	t.Cleanup(func() { gemmMode = old })
}

// refGemm computes the float64-accumulated reference for any operand form.
func refGemm(kind gemmKind, dst, a, b *Matrix) {
	m, n, k := gemmDims(kind, a, b)
	at := func(i, p int) float64 {
		if kind == gemmTNAdd {
			return float64(a.At(p, i))
		}
		return float64(a.At(i, p))
	}
	bt := func(p, j int) float64 {
		if kind == gemmNT {
			return float64(b.At(j, p))
		}
		return float64(b.At(p, j))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			if kind == gemmTNAdd {
				dst.Data[i*n+j] += float32(s)
			} else {
				dst.Data[i*n+j] = float32(s)
			}
		}
	}
}

// gemmTol is the documented equivalence bound between any GEMM kernel in
// this package and the float64-accumulated reference: per output element
// the float32 accumulation over k terms (with or without fused rounding)
// keeps |err| ≤ (k+4)·ε₃₂·max|a|·max|b|. See the package comment.
func gemmTol(k int, a, b *Matrix) float64 {
	amax, bmax := 0.0, 0.0
	for _, v := range a.Data {
		amax = math.Max(amax, math.Abs(float64(v)))
	}
	for _, v := range b.Data {
		bmax = math.Max(bmax, math.Abs(float64(v)))
	}
	return float64(k+4) * 1.2e-7 * math.Max(amax*bmax, 1e-6)
}

func maxAbsDiffSlices(x, y []float32) float64 {
	var max float64
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(y[i])); d > max {
			max = d
		}
	}
	return max
}

// randShape draws a GEMM shape biased toward the awkward cases: tiny dims,
// odd sizes, micro-tile tails (m%4, n%16 ≠ 0) and straddlers of every
// block boundary (blockM rows, and blockN/blockK so multi-column-tile and
// multi-k-slab decompositions are exercised in all operand positions).
func randShape(rng *rand.Rand) (m, k, n int) {
	pick := func() int {
		switch rng.IntN(6) {
		case 0:
			return 1 + rng.IntN(4) // tiny
		case 1:
			return microM*(1+rng.IntN(3)) + rng.IntN(microM) // row-tile tail
		case 2:
			return microN*(1+rng.IntN(2)) + rng.IntN(microN) // col-tile tail
		case 3:
			return blockM + rng.IntN(9) - 4 // row macro-block straddle
		case 4:
			return blockN + rng.IntN(9) - 4 // column-tile / k-slab straddle
		default:
			return 1 + rng.IntN(70)
		}
	}
	return pick(), pick(), pick()
}

// TestBlockedGemmMatchesReferenceRandomShapes is the property suite for the
// blocked path: for every operand form, random awkward shapes must match
// the float64 reference within the documented tolerance, and the inputs
// must come back bit-identical (no aliasing or scratch leaks into
// operands).
func TestBlockedGemmMatchesReferenceRandomShapes(t *testing.T) {
	forceGemmMode(t, gemmBlocked)
	rng := rand.New(rand.NewPCG(42, 43))
	for iter := 0; iter < 200; iter++ {
		m, k, n := randShape(rng)
		for _, kind := range []gemmKind{gemmNN, gemmNT, gemmTNAdd} {
			var a, b *Matrix
			switch kind {
			case gemmNN:
				a, b = randMatrix(rng, m, k), randMatrix(rng, k, n)
			case gemmNT:
				a, b = randMatrix(rng, m, k), randMatrix(rng, n, k)
			case gemmTNAdd:
				a, b = randMatrix(rng, k, m), randMatrix(rng, k, n)
			}
			aCopy, bCopy := a.Clone(), b.Clone()
			got := randMatrix(rng, m, n) // nonzero so overwrite bugs show
			want := got.Clone()
			if kind != gemmTNAdd {
				want.Zero()
			}
			refGemm(kind, want, a, b)
			switch kind {
			case gemmNN:
				MatMul(got, a, b)
			case gemmNT:
				MatMulABT(got, a, b)
			case gemmTNAdd:
				MatMulATBAdd(got, a, b)
			}
			tol := gemmTol(k, a, b)
			if kind == gemmTNAdd {
				tol = gemmTol(k+1, a, b) // one extra add against prior dst
			}
			if d := got.MaxAbsDiff(want); d > tol {
				t.Fatalf("iter %d kind %d shape %dx%dx%d: max diff %v > tol %v", iter, kind, m, k, n, d, tol)
			}
			if maxAbsDiffSlices(a.Data, aCopy.Data) != 0 || maxAbsDiffSlices(b.Data, bCopy.Data) != 0 {
				t.Fatalf("iter %d kind %d shape %dx%dx%d: inputs modified", iter, kind, m, k, n)
			}
		}
	}
}

// TestFusedEpiloguesMatchUnfusedComposition pins the fused epilogue
// contract: bias and activation are applied after the full k accumulation,
// so the fused call must be bit-identical to MatMul followed by the
// separate bias and activation passes — under both kernels.
func TestFusedEpiloguesMatchUnfusedComposition(t *testing.T) {
	for _, mode := range []gemmModeT{gemmNaive, gemmBlocked} {
		t.Run(gemmModeNames[mode], func(t *testing.T) {
			forceGemmMode(t, mode)
			rng := rand.New(rand.NewPCG(7, uint64(mode)))
			for iter := 0; iter < 60; iter++ {
				m, k, n := randShape(rng)
				a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
				bias := make([]float32, n)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}
				unfused := New(m, n)
				MatMul(unfused, a, b)
				unfused.AddRowVector(bias)

				got := New(m, n)
				MatMulBias(got, a, b, bias)
				if d := got.MaxAbsDiff(unfused); d != 0 {
					t.Fatalf("iter %d %dx%dx%d: MatMulBias differs from composition by %v", iter, m, k, n, d)
				}

				MatMulBiasReLU(got, a, b, bias)
				for i, v := range unfused.Data {
					want := v
					if want < 0 {
						want = 0
					}
					if got.Data[i] != want {
						t.Fatalf("iter %d: relu epilogue element %d: %v want %v", iter, i, got.Data[i], want)
					}
				}

				MatMulBiasTanh(got, a, b, bias)
				for i, v := range unfused.Data {
					want := float32(math.Tanh(float64(v)))
					if got.Data[i] != want {
						t.Fatalf("iter %d: tanh epilogue element %d: %v want %v", iter, i, got.Data[i], want)
					}
				}
			}
		})
	}
}

// TestBlockedGemmZeroDims covers the degenerate shapes: zero rows or
// columns are no-ops, and a zero inner dimension must still zero the
// destination for the overwrite forms (and leave it alone for the
// accumulate form).
func TestBlockedGemmZeroDims(t *testing.T) {
	for _, mode := range []gemmModeT{gemmNaive, gemmBlocked, gemmAuto} {
		forceGemmMode(t, mode)
		// k = 0: overwrite forms zero dst.
		dst := New(3, 5)
		dst.Fill(9)
		MatMul(dst, New(3, 0), New(0, 5))
		for _, v := range dst.Data {
			if v != 0 {
				t.Fatalf("mode %d: k=0 MatMul left %v, want 0", mode, v)
			}
		}
		dst.Fill(9)
		MatMulABT(dst, New(3, 0), New(5, 0))
		for _, v := range dst.Data {
			if v != 0 {
				t.Fatalf("mode %d: k=0 MatMulABT left %v, want 0", mode, v)
			}
		}
		// k = 0 accumulate form: dst untouched.
		dst.Fill(2)
		MatMulATBAdd(dst, New(0, 3), New(0, 5))
		for _, v := range dst.Data {
			if v != 2 {
				t.Fatalf("mode %d: k=0 MatMulATBAdd changed dst to %v", mode, v)
			}
		}
		// k = 0 with fused epilogue: dst = act(bias).
		bias := []float32{-1, 2, -3, 4, -5}
		MatMulBiasReLU(dst, New(3, 0), New(0, 5), bias)
		for i, v := range dst.Data {
			want := bias[i%5]
			if want < 0 {
				want = 0
			}
			if v != want {
				t.Fatalf("mode %d: k=0 epilogue element %d = %v, want %v", mode, i, v, want)
			}
		}
		// m = 0 / n = 0: nothing to do, must not panic.
		MatMul(New(0, 5), New(0, 7), New(7, 5))
		MatMul(New(5, 0), New(5, 7), New(7, 0))
		MatMulATBAdd(New(0, 4), New(6, 0), New(6, 4))
	}
}

// TestBlockedGemmDeterministicRepeat pins fixed-shape bit-reproducibility:
// repeated runs on identical inputs — fanned out on a team with whatever
// scheduling happens — must produce byte-identical output, the property
// the DDP overlap/serial equivalence gates build on.
func TestBlockedGemmDeterministicRepeat(t *testing.T) {
	forceGemmMode(t, gemmBlocked)
	tm := NewTeam(2)
	t.Cleanup(tm.Close)
	rng := rand.New(rand.NewPCG(5, 6))
	a := randMatrix(rng, 65, 300)
	b := randMatrix(rng, 300, 130)
	bias := make([]float32, 130)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	first := New(65, 130)
	MatMulBiasReLU(first, a, b, bias)
	got := New(65, 130)
	for run := 0; run < 10; run++ {
		got.Fill(float32(run))
		tm.MatMulEpilogue(got, a, b, bias, EpBiasReLU)
		if d := got.MaxAbsDiff(first); d != 0 {
			t.Fatalf("run %d: diverged by %v from first run", run, d)
		}
	}
}

// TestUseBlockedPolicy pins the auto dispatch: tiny problems stay on the
// naive kernels, training-shaped ones leave them, a·b decides by the weight
// shape alone — never by the row count — and the forced modes win
// regardless of size.
func TestUseBlockedPolicy(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	if useBlocked(gemmNN, 4, 4, 4) || useBlocked(gemmNT, 4, 4, 4) {
		t.Fatal("4x4x4 should use the naive fast path")
	}
	if !useBlocked(gemmNN, 10, 256, 256) || !useBlocked(gemmNT, 10, 256, 256) || !useBlocked(gemmTNAdd, 256, 256, 10) {
		t.Fatal("training shapes should leave the naive kernels")
	}
	for _, nk := range [][2]int{{4, 4}, {7, 9}, {8, 8}, {16, 3}, {256, 1024}} {
		want := useBlocked(gemmNN, 1, nk[0], nk[1])
		for m := 2; m <= 300; m++ {
			if useBlocked(gemmNN, m, nk[0], nk[1]) != want {
				t.Fatalf("a·b against a %dx%d weight changes kernel at %d rows", nk[1], nk[0], m)
			}
		}
	}
	gemmMode = gemmNaive
	if useBlocked(gemmNN, 256, 256, 1024) {
		t.Fatal("gemmNaive must force the reference kernel")
	}
	gemmMode = gemmBlocked
	if !useBlocked(gemmNN, 2, 2, 2) {
		t.Fatal("gemmBlocked must force the blocked kernel")
	}
}

// TestGemmZeroAllocSteadyState verifies the packing-scratch freelist: after
// warm-up, GEMM calls (all forms, fused epilogues included) perform zero
// heap allocations — on the packed driver and, at ten rows under auto, on
// the skinny one.
func TestGemmZeroAllocSteadyState(t *testing.T) {
	forEachLevel(t, testGemmZeroAllocSteadyState)
}

func testGemmZeroAllocSteadyState(t *testing.T) {
	k, n := 256, 300
	if softwareFMA() {
		k, n = 72, 40 // still two row tiles of dW, a column tail and a row tail
	}
	for _, mode := range []gemmModeT{gemmBlocked, gemmAuto} {
		forceGemmMode(t, mode)
		rng := rand.New(rand.NewPCG(8, 9))
		x := randMatrix(rng, 10, k)
		w := randMatrix(rng, k, n)
		bias := make([]float32, n)
		y := New(10, n)
		dy := randMatrix(rng, 10, n)
		dw := New(k, n)
		dx := New(10, k)
		step := func() {
			MatMulBiasReLU(y, x, w, bias)
			MatMulATBAdd(dw, x, dy)
			MatMulABT(dx, dy, w)
		}
		step() // warm the scratch freelist
		if avg := testing.AllocsPerRun(50, step); avg != 0 {
			t.Fatalf("%s GEMM allocates %v per step in steady state, want 0", gemmModeNames[mode], avg)
		}
	}
}

// TestDotFloat64Accumulation pins the documented Dot contract on a
// long vector designed to defeat float32 accumulation: alternating huge and
// tiny terms whose float32 running sum loses the tiny ones entirely.
func TestDotFloat64Accumulation(t *testing.T) {
	const n = 1 << 16
	x := make([]float32, n)
	y := make([]float32, n)
	var want float64
	for i := range x {
		if i%2 == 0 {
			x[i], y[i] = 4096, 4096 // product 2^24: float32 ulp is 2
		} else {
			x[i], y[i] = 1, 0.5 // product 0.5: absorbed by a float32 sum
		}
		want += float64(x[i]) * float64(y[i])
	}
	got := float64(Dot(x, y))
	// float64 accumulation keeps every 0.5; a float32 sum would drop all
	// n/2 of them (a 16384.0 deficit here).
	if math.Abs(got-want) > want*1e-7 {
		t.Fatalf("Dot = %v, want %v (err %v): float32 accumulation?", got, want, got-want)
	}
	// Deterministic sanity on a short vector with an odd tail.
	if d := Dot([]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}); d != 15 {
		t.Fatalf("Dot tail handling: got %v, want 15", d)
	}
}

// TestMicroKernelsAgree compares every level's tile kernel the machine can
// run against the portable Go kernel on random panels, packed and strided,
// at the most rows the level takes and one short of it: bit-equal, since
// kern4x16Go states the fused arithmetic.
func TestMicroKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	for _, l := range levels {
		for _, kc := range []int{0, 1, 3, 17, 256} {
			for _, ldb := range []int{microN, microN + 5, 1024} {
				for _, rows := range []int{l.rows, l.rows - 1} {
					pa := randMatrix(rng, max(kc, 1), l.rows).Data
					pb := randMatrix(rng, max(kc, 1), ldb).Data
					cLevel := make([]float32, l.rows*microN)
					cGo := make([]float32, l.rows*microN)
					for i := range cLevel {
						cLevel[i] = float32(i) * 0.25
						cGo[i] = float32(i) * 0.25
					}
					l.tile(kc, pa, pb, ldb, cLevel, microN, rows)
					kern4x16Go(kc, pa, pb, ldb, cGo, microN, rows)
					if !bitsEqual(cLevel, cGo) {
						t.Fatalf("%s kc=%d ldb=%d rows=%d: got %v, portable %v", l.name, kc, ldb, rows, cLevel, cGo)
					}
				}
			}
		}
	}
}

// TestBlockedLargeK exercises multiple blockK slabs (k > 2·blockK) so the
// k-panel accumulation across packing rounds is covered.
func TestBlockedLargeK(t *testing.T) {
	forceGemmMode(t, gemmBlocked)
	rng := rand.New(rand.NewPCG(12, 13))
	m, k, n := 9, 2*blockK+37, 21
	a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
	got := New(m, n)
	MatMul(got, a, b)
	want := New(m, n)
	refGemm(gemmNN, want, a, b)
	if d := got.MaxAbsDiff(want); d > gemmTol(k, a, b) {
		t.Fatalf("large-k blocked: diff %v > tol %v", d, gemmTol(k, a, b))
	}
}

// TestBlockedMultiColumnTiles pins the n > blockN decomposition — several
// column macro-tiles per row, the production output-layer shape — for all
// three operand forms and a fused epilogue, including the j0 > 0 paths of
// packBNN/packBT and the bias[j0:j1] epilogue slicing.
func TestBlockedMultiColumnTiles(t *testing.T) {
	forceGemmMode(t, gemmBlocked)
	rng := rand.New(rand.NewPCG(14, 15))
	m, k, n := 10, blockK+29, 2*blockN+37 // tails in every block dimension
	for _, kind := range []gemmKind{gemmNN, gemmNT, gemmTNAdd} {
		var a, b *Matrix
		switch kind {
		case gemmNN:
			a, b = randMatrix(rng, m, k), randMatrix(rng, k, n)
		case gemmNT:
			a, b = randMatrix(rng, m, k), randMatrix(rng, n, k)
		case gemmTNAdd:
			a, b = randMatrix(rng, k, m), randMatrix(rng, k, n)
		}
		gm, gn, gk := gemmDims(kind, a, b)
		got := randMatrix(rng, gm, gn)
		want := got.Clone()
		if kind != gemmTNAdd {
			want.Zero()
		}
		refGemm(kind, want, a, b)
		switch kind {
		case gemmNN:
			MatMul(got, a, b)
		case gemmNT:
			MatMulABT(got, a, b)
		case gemmTNAdd:
			MatMulATBAdd(got, a, b)
		}
		if d := got.MaxAbsDiff(want); d > gemmTol(gk+1, a, b) {
			t.Fatalf("kind %d %dx%dx%d: diff %v > tol %v", kind, gm, gk, gn, d, gemmTol(gk+1, a, b))
		}
	}
	// Fused epilogue across column tiles: bit-identical to the unfused
	// composition at the same width.
	a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	unfused := New(m, n)
	MatMul(unfused, a, b)
	unfused.AddRowVector(bias)
	got := New(m, n)
	MatMulBiasReLU(got, a, b, bias)
	for i, v := range unfused.Data {
		want := v
		if want < 0 {
			want = 0
		}
		if got.Data[i] != want {
			t.Fatalf("fused relu epilogue across column tiles: element %d = %v, want %v", i, got.Data[i], want)
		}
	}
}

// TestNaiveMatchesReferenceRandomShapes keeps the reference kernels honest
// against the float64 oracle too — they are both the equivalence baseline
// and the small-size fast path.
func TestNaiveMatchesReferenceRandomShapes(t *testing.T) {
	forceGemmMode(t, gemmNaive)
	rng := rand.New(rand.NewPCG(77, 78))
	for iter := 0; iter < 40; iter++ {
		m, k, n := randShape(rng)
		a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
		got := New(m, n)
		MatMul(got, a, b)
		want := New(m, n)
		refGemm(gemmNN, want, a, b)
		if d := got.MaxAbsDiff(want); d > gemmTol(k, a, b) {
			t.Fatalf("iter %d shape %dx%dx%d: naive diff %v", iter, m, k, n, d)
		}
	}
}

func ExampleMatMulBiasReLU() {
	a := FromSlice(1, 2, []float32{1, 2})
	w := FromSlice(2, 2, []float32{1, -1, 1, -1})
	dst := New(1, 2)
	MatMulBiasReLU(dst, a, w, []float32{0.5, 0.5})
	fmt.Println(dst.Data)
	// Output: [3.5 0]
}
