package tensor

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

var gemmModeNames = map[gemmModeT]string{gemmAuto: "auto", gemmNaive: "naive", gemmBlocked: "blocked"}

// forwardForms are the four a·b entry points a dense layer's forward uses.
var forwardForms = []struct {
	name string
	run  func(dst, a, b *Matrix, bias []float32)
}{
	{"MatMul", func(dst, a, b *Matrix, _ []float32) { MatMul(dst, a, b) }},
	{"MatMulBias", MatMulBias},
	{"MatMulBiasReLU", MatMulBiasReLU},
	{"MatMulBiasTanh", MatMulBiasTanh},
}

func bitsEqual(x, y []float32) bool {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return len(x) == len(y)
}

// TestRowInvariance is the property serving is built on: an output row of
// a·b (+ bias, + activation) is a pure function of its input row and the
// weights. Each of a few query rows is answered alone, then planted at a
// random position among random neighbours in batches of every size from 1
// to 40 — across the micro-panel tails, the 12-row kernel's 4-, 8- and
// 12-row loops, the skinny bound at 32/33 and the naive threshold — and must
// come back with the same bits every time, and the same under the packed
// driver as under the one that reads b in place; at every kernel level.
func TestRowInvariance(t *testing.T) {
	forEachLevel(t, testRowInvariance)
}

func testRowInvariance(t *testing.T) {
	forceGemmMode(t, gemmAuto) // restores the mode the loops below set
	rng := rand.New(rand.NewPCG(2024, 17))
	shapes := [][2]int{{1, 1}, {3, 5}, {8, 8}, {7, 9}, {16, 16}, {33, 17}, {256, 64}, {100, 300}, {blockK + 13, 2*microN + 3}, {2*blockK + 1, 50}}
	for i := 0; i < 4; i++ {
		shapes = append(shapes, [2]int{1 + rng.IntN(600), 1 + rng.IntN(300)})
	}
	const queries = 5
	for _, sh := range shapes {
		k, n := sh[0], sh[1]
		if softwareFMA() && k*n > 1024 {
			continue // its tile calls are the AVX2 level's
		}
		w := randMatrix(rng, k, n)
		bias := randMatrix(rng, 1, n).Data
		pool := randMatrix(rng, queries, k)
		for _, form := range forwardForms {
			// Per mode, per query: the M = 1 answer. Auto is the naive
			// kernel on the tiny shapes, so that one is covered too.
			var alone [3][queries]*Matrix
			for _, mode := range []gemmModeT{gemmAuto, gemmBlocked} {
				gemmMode = mode
				var q Matrix
				for qi := range alone[mode] {
					pool.ViewRows(&q, qi, qi+1)
					alone[mode][qi] = New(1, n)
					form.run(alone[mode][qi], &q, w, bias)
				}
				for m := 1; m <= 40; m++ {
					a := randMatrix(rng, m, k)
					at := rng.Perm(m)[:min(m, queries)]
					for qi, row := range at {
						copy(a.Row(row), pool.Row(qi))
					}
					dst := randMatrix(rng, m, n)
					form.run(dst, a, w, bias)
					for qi, row := range at {
						if !bitsEqual(dst.Row(row), alone[mode][qi].Data) {
							t.Fatalf("%s %s k=%d n=%d: query %d at row %d of %d differs from its answer alone",
								form.name, gemmModeNames[mode], k, n, qi, row, m)
						}
					}
				}
			}
			gemmMode = gemmAuto
			if !useBlocked(gemmNN, 1, n, k) {
				continue // auto is the naive kernel here, which rounds differently
			}
			for qi := range alone[gemmAuto] {
				if !bitsEqual(alone[gemmAuto][qi].Data, alone[gemmBlocked][qi].Data) {
					t.Fatalf("%s k=%d n=%d: in-place and packed drivers disagree", form.name, k, n)
				}
			}
		}
	}
}

// TestSkinnyMatchesReference holds the skinny driver to the package's
// tolerance contract against the float64 reference — a·bᵀ has its own
// accumulation order, so this is its equivalence test — for every row
// count it takes, with tails in n and k, and checks a repeat is bit-equal
// and the operands are untouched.
func TestSkinnyMatchesReference(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	rng := rand.New(rand.NewPCG(31, 32))
	for iter := 0; iter < 150; iter++ {
		m := 1 + iter%skinnyM
		_, k, n := randShape(rng)
		if iter%5 == 0 {
			k, n = 1024+rng.IntN(9), 256+rng.IntN(3)
		}
		for _, kind := range []gemmKind{gemmNN, gemmNT} {
			a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
			run := MatMul
			if kind == gemmNT {
				b, run = randMatrix(rng, n, k), MatMulABT
			}
			aCopy, bCopy := a.Clone(), b.Clone()
			want := New(m, n)
			refGemm(kind, want, a, b)
			got, again := randMatrix(rng, m, n), randMatrix(rng, m, n)
			run(got, a, b)
			run(again, a, b)
			if d, tol := got.MaxAbsDiff(want), gemmTol(k, a, b); d > tol {
				t.Fatalf("iter %d kind %d shape %dx%dx%d: max diff %v > tol %v", iter, kind, m, k, n, d, tol)
			}
			if !bitsEqual(got.Data, again.Data) {
				t.Fatalf("iter %d kind %d shape %dx%dx%d: repeat differs", iter, kind, m, k, n)
			}
			if !bitsEqual(a.Data, aCopy.Data) || !bitsEqual(b.Data, bCopy.Data) {
				t.Fatalf("iter %d kind %d shape %dx%dx%d: inputs modified", iter, kind, m, k, n)
			}
		}
	}
}

// floatClass sorts a value into NaN, +Inf, −Inf or finite.
func floatClass(x float32) int {
	switch {
	case x != x:
		return 0
	case math.IsInf(float64(x), 1):
		return 1
	case math.IsInf(float64(x), -1):
		return 2
	}
	return 3
}

// TestNonFinitePropagates pins one rule for every driver and every kernel
// level: a non-finite operand reaches the output even under
// a zero on the other side (0·NaN = 0·∞ = NaN), as IEEE arithmetic and the
// float64 reference have it. The naive kernels used to skip zero
// activations, so a dead ReLU unit hid a NaN weight on one driver and
// showed it on the others.
func TestNonFinitePropagates(t *testing.T) {
	forceGemmMode(t, gemmAuto)
	rng := rand.New(rand.NewPCG(55, 56))
	inf := float32(math.Inf(1))
	oldKern := kern
	t.Cleanup(func() { kern = oldKern })
	for _, sh := range [][3]int{{10, 40, 35}, {3, 9, 6}, {20, 300, 18}, {1, 17, 33}} {
		m, k, n := sh[0], sh[1], sh[2]
		for _, kind := range []gemmKind{gemmNN, gemmNT, gemmTNAdd} {
			// a has zeros (dead units) on a third of its entries and one
			// whole zero column of the shared dimension; b carries NaN and
			// ±Inf exactly there.
			var a, b *Matrix
			switch kind {
			case gemmNN:
				a, b = randMatrix(rng, m, k), randMatrix(rng, k, n)
			case gemmNT:
				a, b = randMatrix(rng, m, k), randMatrix(rng, n, k)
			case gemmTNAdd:
				a, b = randMatrix(rng, k, m), randMatrix(rng, k, n)
			}
			for i := range a.Data {
				if rng.IntN(3) == 0 {
					a.Data[i] = 0
				}
			}
			p := rng.IntN(k) // shared index whose a-entries are all zero
			for i := 0; i < m; i++ {
				if kind == gemmTNAdd {
					a.Set(p, i, 0)
				} else {
					a.Set(i, p, 0)
				}
			}
			for j, v := range []float32{float32(math.NaN()), inf, -inf} {
				if j >= n {
					break
				}
				if kind == gemmNT {
					b.Set(j, p, v)
				} else {
					b.Set(p, j, v)
				}
			}
			b.Data[rng.IntN(len(b.Data))] = inf // and one wherever it falls
			gm, gn, _ := gemmDims(kind, a, b)
			want := New(gm, gn)
			refGemm(kind, want, a, b)
			if floatClass(want.At(0, 0)) != 0 {
				t.Fatalf("reference lost the planted NaN: %v", want.At(0, 0))
			}
			for _, mode := range []gemmModeT{gemmAuto, gemmNaive, gemmBlocked} {
				for _, kern = range levels {
					gemmMode = mode
					got := New(gm, gn)
					switch kind {
					case gemmNN:
						MatMul(got, a, b)
					case gemmNT:
						MatMulABT(got, a, b)
					case gemmTNAdd:
						MatMulATBAdd(got, a, b)
					}
					for i := range got.Data {
						if floatClass(got.Data[i]) != floatClass(want.Data[i]) {
							t.Fatalf("kind %d %dx%dx%d %s %s: element %d is %v, reference %v",
								kind, m, k, n, gemmModeNames[mode], kern.name, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}

	// The two NaN rules of the elementwise family, on the assembly and the
	// portable side: a fused bias epilogue hands a non-finite product on,
	// the ReLU epilogue turns NaN and −∞ into +0 (as `x > 0` being false
	// does) and keeps +∞, and the ReLU backward pass lets the gradient
	// through a NaN activation (as `y <= 0` being false does) while a
	// non-finite gradient reaches dz and the bias gradient.
	nan := float32(math.NaN())
	oldAdd, oldAddReLU, oldGrad := vecAdd, vecAddReLU, vecReLUGradBias
	t.Cleanup(func() { vecAdd, vecAddReLU, vecReLUGradBias = oldAdd, oldAddReLU, oldGrad })
	for _, portable := range []bool{false, true} {
		if portable {
			vecAdd, vecAddReLU, vecReLUGradBias = addGo, addReLUGo, reluGradBiasGo
		}
		const n = 19 // two blocks and a tail
		a, b, bias := New(1, 2), New(2, n), make([]float32, n)
		a.Data[0], a.Data[1] = 1, 0
		for j := 0; j < n; j++ {
			b.Data[j] = []float32{nan, inf, -inf, 0.5}[j%4]
			b.Data[n+j] = 1
			bias[j] = 0.25
		}
		lin, relu := New(1, n), New(1, n)
		MatMulBias(lin, a, b, bias)
		MatMulBiasReLU(relu, a, b, bias)
		dy, dz, bgrad := make([]float32, n), make([]float32, n), make([]float32, n)
		y := make([]float32, n)
		for j := range dy {
			dy[j] = []float32{2, nan, inf, -inf, 3}[j%5]
			y[j] = []float32{nan, 1, 0, -1}[j%4]
		}
		ReLUGradBias(dz, dy, y, bgrad)
		for j := 0; j < n; j++ {
			if floatClass(lin.Data[j]) != floatClass(b.Data[j]) {
				t.Fatalf("portable=%v: EpBias column %d is %v under a %v product", portable, j, lin.Data[j], b.Data[j])
			}
			want := []float32{0, inf, 0, 0.75}[j%4]
			if math.Float32bits(relu.Data[j]) != math.Float32bits(want) {
				t.Fatalf("portable=%v: EpBiasReLU column %d is %v under a %v product, want %v", portable, j, relu.Data[j], b.Data[j], want)
			}
			want = dy[j]
			if j%4 >= 2 { // y ≤ 0
				want = 0
			}
			if math.Float32bits(dz[j]) != math.Float32bits(want) && (want == want || dz[j] == dz[j]) {
				t.Fatalf("portable=%v: ReLUGradBias dz[%d] is %v for dy %v at y %v", portable, j, dz[j], dy[j], y[j])
			}
			if math.Float32bits(bgrad[j]) != math.Float32bits(dz[j]) && (bgrad[j] == bgrad[j] || dz[j] == dz[j]) {
				t.Fatalf("portable=%v: bias gradient %v after dz %v", portable, bgrad[j], dz[j])
			}
		}
	}
}

// TestFMA32 checks the portable fused multiply-add against exact
// arithmetic: the cases where rounding the float64 sum a second time goes
// wrong (a float32 tie the exact sum just misses, normal and subnormal),
// overflow, signed zeros and random operands across the exponent range.
func TestFMA32(t *testing.T) {
	exact := func(a, b, c float32) float32 {
		x := new(big.Float).SetPrec(400).SetFloat64(float64(a))
		x.Mul(x, new(big.Float).SetFloat64(float64(b)))
		x.Add(x, new(big.Float).SetFloat64(float64(c)))
		f, _ := x.Float32()
		return f
	}
	check := func(a, b, c float32) {
		t.Helper()
		got := fma32(a, b, c)
		want := exact(a, b, c)
		if (a == 0 || b == 0) && c == 0 { // big.Float has no −0 + +0 rule; IEEE does
			want = a*b + c
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%x, %x, %x) = %x, want %x", a, b, c, got, want)
		}
	}
	// Products a hair off a power of two against a c whose half-ulp they
	// reach: the float64 sum lands exactly on a float32 tie the exact sum
	// misses, and c's mantissa is odd, so rounding twice picks the wrong
	// neighbour. The last is the same in the subnormal range, where ties
	// sit at odd multiples of 2⁻¹⁵⁰.
	for _, x := range [][3]float32{
		{2 - 0x1p-22, 1 + 0x1p-23, 0x1p25 + 4},
		{-(2 - 0x1p-22), 1 + 0x1p-23, -(0x1p25 + 4)},
		{2 - 0x1p-22, -(1 + 0x1p-23), 0x1p25 + 4},
		{0x1p-75 * (1 + 0x1p-23), 0x1p-75 * (1 - 0x1p-23), 0x1p-127 + 0x1p-149},
	} {
		if twice := float32(float64(x[0])*float64(x[1]) + float64(x[2])); twice == exact(x[0], x[1], x[2]) {
			t.Fatalf("case %x is not a double-rounding case", x)
		}
		check(x[0], x[1], x[2])
	}
	check(0x1p-75, 0x1p-75, 0x1p-149)
	check(0x1p-75, -0x1p-75, 0x1p-149)
	check(0x1p-100, 0x1p-100, 0)
	check(math.MaxFloat32, 2, -math.MaxFloat32)
	check(math.MaxFloat32, 1+0x1p-23, 0x1p103)
	check(0, -1, 0)
	check(0, -1, float32(math.Copysign(0, -1)))
	rng := rand.New(rand.NewPCG(91, 92))
	draw := func() float32 {
		return float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(80)-40))
	}
	for i := 0; i < 200000; i++ {
		a, b := draw(), draw()
		c := draw()
		switch i % 4 {
		case 1: // c near a tie distance from the product
			c = -a * b * float32(math.Ldexp(1, rng.IntN(60)-30))
		case 2: // subnormal results
			a, c = a*0x1p-100, c*0x1p-120
		case 3: // cancellation
			c = -(a * b)
		}
		check(a, b, c)
	}
}
