package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// vecArgs is one set of operands for every kernel of the family: four
// float32 vectors, a float64 vector and 4·n bytes, all of one length n, and
// three scalars. Kernels write x (ReLUGradBias also w, PutF32LE b,
// SqDiffSum sum).
type vecArgs struct {
	x, y, z, w  []float32
	d           []float64
	b           []byte
	s, lo, span float32
	sum         float64
}

// vecFamily lists each kernel as the exported function runs it (the
// assembly where the CPU check passed) and as its portable twin.
var vecFamily = []struct {
	name             string
	active, portable func(a *vecArgs)
}{
	{"Add", func(a *vecArgs) { Add(a.x, a.y) }, func(a *vecArgs) { addGo(a.x, a.y) }},
	{"AddReLU", func(a *vecArgs) { AddReLU(a.x, a.y) }, func(a *vecArgs) { addReLUGo(a.x, a.y) }},
	{"ReLUGradBias", func(a *vecArgs) { ReLUGradBias(a.x, a.y, a.z, a.w) }, func(a *vecArgs) { reluGradBiasGo(a.x, a.y, a.z, a.w) }},
	{"SubScale", func(a *vecArgs) { SubScale(a.x, a.y, a.z, a.s) }, func(a *vecArgs) { subScaleGo(a.x, a.y, a.z, a.s) }},
	{"SqDiffSum", func(a *vecArgs) { a.sum = SqDiffSum(a.y, a.z) }, func(a *vecArgs) { a.sum = sqDiffSumPortable(a.y, a.z) }},
	{"AffineNorm", func(a *vecArgs) { AffineNorm(a.x, a.y, a.lo, a.span) }, func(a *vecArgs) { affineNormGo(a.x, a.y, a.lo, a.span) }},
	{"F64ToF32", func(a *vecArgs) { F64ToF32(a.x, a.d) }, func(a *vecArgs) { f64ToF32Go(a.x, a.d) }},
	{"PutF32LE", func(a *vecArgs) { PutF32LE(a.b, a.y) }, func(a *vecArgs) { putF32LEGo(a.b, a.y) }},
	{"GetF32LE", func(a *vecArgs) { GetF32LE(a.x, a.b) }, func(a *vecArgs) { getF32LEGo(a.x, a.b) }},
}

// sqDiffSumPortable is SqDiffSum over the portable lanes.
func sqDiffSumPortable(a, b []float32) float64 {
	active := vecSqDiffLanes
	vecSqDiffLanes = sqDiffLanesGo
	defer func() { vecSqDiffLanes = active }()
	return SqDiffSum(a, b)
}

// clone copies a with every vector moved off bytes past an allocation's
// start (off floats for the float vectors), so kernels see operands on no
// particular alignment.
func (a *vecArgs) clone(off int) *vecArgs {
	f32 := func(v []float32) []float32 { return append(make([]float32, off, off+len(v)), v...)[off:] }
	c := *a
	c.x, c.y, c.z, c.w = f32(a.x), f32(a.y), f32(a.z), f32(a.w)
	c.d = append(make([]float64, off, off+len(a.d)), a.d...)[off:]
	c.b = append(make([]byte, off, off+len(a.b)), a.b...)[off:]
	return &c
}

// checkVecFamily runs every kernel both ways on copies of a and requires
// the outputs bit-equal. Only SqDiffSum's float64 result folds NaNs: its
// lanes can add an operand's NaN to the one ∞−∞ makes, and which of two
// NaNs an addition hands on is the operand order the compiler chose.
func checkVecFamily(t *testing.T, a *vecArgs, off int) {
	t.Helper()
	for _, k := range vecFamily {
		got, want := a.clone(off), a.clone(0)
		k.active(got)
		k.portable(want)
		for name, v := range map[string][2][]float32{"x": {got.x, want.x}, "w": {got.w, want.w}} {
			for i := range v[0] {
				if g, w := math.Float32bits(v[0][i]), math.Float32bits(v[1][i]); g != w {
					t.Fatalf("%s n=%d off=%d: %s[%d] = %#08x, portable %#08x", k.name, len(a.x), off, name, i, g, w)
				}
			}
		}
		if !bytes.Equal(got.b, want.b) {
			t.Fatalf("%s n=%d off=%d: bytes differ", k.name, len(a.x), off)
		}
		if g, w := got.sum, want.sum; math.Float64bits(g) != math.Float64bits(w) && (g == g || w == w) {
			t.Fatalf("%s n=%d off=%d: sum %x, portable %x", k.name, len(a.x), off, g, w)
		}
	}
}

// vecSpecials are the operands a kernel must treat as the scalar loop does:
// one NaN pattern (see checkAdamImpls for why one), infinities, signed
// zeros, subnormals and the extremes of the normal range.
var vecSpecials = []float32{
	adamNaN, float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	0x1p-149, -0x1p-149, 0x1p-130, -0x1p-127, 0x1p-126, math.MaxFloat32, -math.MaxFloat32,
}

func vecDraw(rng *rand.Rand) float32 {
	if rng.IntN(4) == 0 {
		return vecSpecials[rng.IntN(len(vecSpecials))]
	}
	return float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(40)-20))
}

// TestVecKernelsMatchPortable: lengths 0–67 cover every n mod 8 tail on
// either side of one to eight blocks, offsets every alignment of a block.
func TestVecKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 23))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 9; off++ {
			a := &vecArgs{s: vecDraw(rng), lo: vecDraw(rng), span: vecDraw(rng)}
			for _, s := range []*float32{&a.s, &a.lo, &a.span} {
				if *s != *s {
					*s = 0.75
				}
			}
			for i := 0; i < n; i++ {
				a.x, a.y = append(a.x, vecDraw(rng)), append(a.y, vecDraw(rng))
				a.z, a.w = append(a.z, vecDraw(rng)), append(a.w, vecDraw(rng))
				a.d = append(a.d, float64(vecDraw(rng))*math.Ldexp(1+rng.Float64(), rng.IntN(3)*150-150))
				a.b = binary.LittleEndian.AppendUint32(a.b, rng.Uint32())
			}
			checkVecFamily(t, a, off)
		}
	}
}

// FuzzVecKernels is the byte-seeded differential: the first 13 bytes are
// the offset and the three scalars, every following 16 bytes one element of
// x, y, z and w as raw bits (and, reread, of the float64 and byte operands).
// NaNs in the float32 operands are folded onto one pattern and the scalars
// kept off NaN, for the reason checkAdamImpls gives.
func FuzzVecKernels(f *testing.F) {
	seed := make([]byte, 13)
	binary.LittleEndian.PutUint32(seed[1:], math.Float32bits(0.5))
	binary.LittleEndian.PutUint32(seed[5:], math.Float32bits(180))
	binary.LittleEndian.PutUint32(seed[9:], math.Float32bits(240))
	for _, x := range vecSpecials {
		for _, y := range []float32{1.5, x, -x, 0} {
			seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(x))
			seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(y))
		}
	}
	f.Add(seed)
	f.Add(seed[:13+16*9])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 13 {
			return
		}
		float := func(b []byte) float32 {
			if x := math.Float32frombits(binary.LittleEndian.Uint32(b)); x == x {
				return x
			}
			return adamNaN
		}
		a := &vecArgs{s: float(data[1:]), lo: float(data[5:]), span: float(data[9:])}
		for _, s := range []*float32{&a.s, &a.lo, &a.span} {
			if *s != *s {
				*s = 0.75
			}
		}
		off, data := int(data[0]%9), data[13:]
		n := len(data) / 16
		for i := 0; i < n; i++ {
			e := data[16*i : 16*i+16]
			a.x, a.y = append(a.x, float(e)), append(a.y, float(e[4:]))
			a.z, a.w = append(a.z, float(e[8:])), append(a.w, float(e[12:]))
			a.d = append(a.d, math.Float64frombits(binary.LittleEndian.Uint64(e[4*(i%3):])))
			a.b = append(a.b, e[4*(i%4):4*(i%4)+4]...)
		}
		checkVecFamily(t, a, off)
	})
}

// TestSqDiffSumOrder pins SqDiffSum's stated order — element i into partial
// sum i mod 8 over the whole blocks, the tree ((l0+l4)+(l2+l6))+((l1+l5)+
// (l3+l7)), then the tail in sequence — by executing exactly that in
// math/big at float64's precision, where every operation rounds as IEEE
// does: the result must match to the bit on the active and the portable
// lanes alike. It also stays within a few ulp per block of the exact sum,
// which is what makes it a loss worth reporting.
func TestSqDiffSumOrder(t *testing.T) {
	f64 := func(x float64) *big.Float { return new(big.Float).SetMode(big.ToNearestEven).SetPrec(53).SetFloat64(x) }
	add := func(x, y *big.Float) *big.Float { return f64(0).Add(x, y) }
	rng := rand.New(rand.NewPCG(5, 8))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 67, 1024, 10240 + 5} {
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(24)-12))
			b[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(24)-12))
		}
		sq := func(i int) *big.Float {
			d := f64(0).Sub(f64(float64(a[i])), f64(float64(b[i])))
			return d.Mul(d, d)
		}
		var l [8]*big.Float
		for j := range l {
			l[j] = f64(0)
		}
		exact := new(big.Float).SetPrec(2000)
		for i := 0; i < n; i++ {
			d := new(big.Float).SetPrec(2000).Sub(big.NewFloat(float64(a[i])), big.NewFloat(float64(b[i])))
			exact.Add(exact, d.Mul(d, d))
			if i < n&^7 {
				l[i%8].Add(l[i%8], sq(i))
			}
		}
		tree := add(add(add(l[0], l[4]), add(l[2], l[6])), add(add(l[1], l[5]), add(l[3], l[7])))
		for i := n &^ 7; i < n; i++ {
			tree.Add(tree, sq(i))
		}
		want, _ := tree.Float64()
		got, portable := SqDiffSum(a, b), sqDiffSumPortable(a, b)
		if got != want || portable != want {
			t.Fatalf("n=%d: SqDiffSum %x, portable %x, stated order %x", n, got, portable, want)
		}
		ex, _ := exact.Float64()
		if ulp := math.Nextafter(ex, math.Inf(1)) - ex; math.Abs(got-ex) > float64(n/8+4)*ulp {
			t.Fatalf("n=%d: SqDiffSum %x is %g ulp from the exact %x", n, got, math.Abs(got-ex)/ulp, ex)
		}
	}
}

// BenchmarkVec runs each kernel at a field's length and at the paper
// model's gradient length, as exported and portable.
func BenchmarkVec(b *testing.B) {
	for _, n := range []int{1024, 330752} {
		a := &vecArgs{x: make([]float32, n), y: make([]float32, n), z: make([]float32, n), w: make([]float32, n),
			d: make([]float64, n), b: make([]byte, 4*n), s: 1, lo: 180, span: 240}
		for i := range a.y {
			a.y[i], a.z[i], a.d[i] = float32(i%97)+200, float32(i%89)-40, float64(i%97)+200
		}
		for _, k := range vecFamily {
			for i, run := range []func(*vecArgs){k.active, k.portable} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, []string{"active", "portable"}[i]), func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					for i := 0; i < b.N; i++ {
						run(a)
					}
				})
			}
		}
	}
}
