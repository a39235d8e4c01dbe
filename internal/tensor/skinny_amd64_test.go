//go:build amd64

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// checkSkinnyKernels runs every assembly GEMM kernel the machine has and
// its portable twin on the same operands — vals fills a, b and c cyclically
// — and demands the same bits. The tile kernels are called packed (ldb 16)
// and strided, with every row count they take, and must leave the rows of c
// from rows on as they found them; dot4x4's twin is dot4x2Go on either pair
// of w's rows.
func checkSkinnyKernels(t *testing.T, vals []float32, k int) {
	t.Helper()
	at := func(i int) float32 { return vals[i%len(vals)] }
	const ldc = 20
	for _, l := range levels[1:] {
		for _, ldb := range []int{microN, microN + 3} {
			for rows := 1; rows <= l.rows; rows++ {
				pa, pb := make([]float32, l.rows*k), make([]float32, ldb*k+microN)
				cAsm, cGo := make([]float32, l.rows*ldc), make([]float32, l.rows*ldc)
				for i := range pa {
					pa[i] = at(i + rows)
				}
				for i := range pb {
					pb[i] = at(i + 7*len(pa) + 3)
				}
				for i := range cAsm {
					cAsm[i] = at(i + 5)
					cGo[i] = cAsm[i]
				}
				l.tile(k, pa, pb, ldb, cAsm, ldc, rows)
				kern4x16Go(k, pa, pb, ldb, cGo, ldc, rows)
				for i := range cAsm {
					if !sameFloat(cAsm[i], cGo[i]) {
						t.Fatalf("%s tile k=%d ldb=%d rows=%d: c[%d] assembly %x, portable %x", l.name, k, ldb, rows, i, cAsm[i], cGo[i])
					}
				}
			}
		}
	}
	for _, ld := range [][2]int{{k, k}, {k + 3, 0}, {0, k + 1}} {
		lda, ldw := ld[0], ld[1]
		a, w := make([]float32, 3*lda+k), make([]float32, 3*ldw+k)
		for i := range a {
			a[i] = at(i)
		}
		for i := range w {
			w[i] = at(3*i + 1)
		}
		var oAsm, oGo, oLo, oHi [16]float32
		dot4x2FMA(k, a, lda, w, ldw, &oAsm)
		dot4x2Go(k, a, lda, w, ldw, &oLo)
		dot4x2Go(k, a, lda, w[2*ldw:], ldw, &oHi)
		for i := range oAsm[:8] {
			if !sameFloat(oAsm[i], oLo[i]) {
				t.Fatalf("dot4x2 k=%d lda=%d ldw=%d: out[%d] assembly %x, portable %x", k, lda, ldw, i, oAsm[i], oLo[i])
			}
		}
		if !hasAVX512F() {
			continue
		}
		for r := 0; r < microM; r++ {
			copy(oGo[4*r:], oLo[2*r:2*r+2])
			copy(oGo[4*r+2:], oHi[2*r:2*r+2])
		}
		dot4x4(k, a, lda, w, ldw, &oAsm)
		for i := range oAsm {
			if !sameFloat(oAsm[i], oGo[i]) {
				t.Fatalf("dot4x4 k=%d lda=%d ldw=%d: out[%d] assembly %x, portable %x", k, lda, ldw, i, oAsm[i], oGo[i])
			}
		}
	}
}

// TestSkinnyKernelsMatchPortable calls the assembly kernels and the
// portable twins directly (not through the active level) on
// every k from 0 to 41 — each tail length on either side of one to five
// 8-lane blocks — with ordinary values, values whose products and sums
// overflow, underflow to subnormals and cancel, and the double-rounding
// cases of TestFMA32.
func TestSkinnyKernelsMatchPortable(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	rng := rand.New(rand.NewPCG(71, 72))
	inf := float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), 1, -1, inf, -inf, float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, 0x1p-149, -0x1p-149, 0x1p-126, 0x1p-75, -0x1p-75,
		2 - 0x1p-22, 1 + 0x1p-23, 0x1p25 + 4, 0x1p-127 + 0x1p-149, 0x1p64, -0x1p64}
	for k := 0; k <= 41; k++ {
		for round := 0; round < 6; round++ {
			vals := make([]float32, 997)
			for i := range vals {
				switch {
				case round == 0:
					vals[i] = float32(rng.NormFloat64())
				case round == 1:
					vals[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.IntN(250)-125))
				case round == 2:
					vals[i] = float32(math.Ldexp(rng.Float64()*2-1, -60-rng.IntN(20)))
				case round == 3 || rng.IntN(4) == 0:
					vals[i] = special[rng.IntN(len(special))]
				default:
					vals[i] = float32(rng.NormFloat64())
				}
			}
			checkSkinnyKernels(t, vals, k)
		}
	}
	// fma(a, b, c) at a double-rounding case, as the chain 1·c then a·b.
	for _, x := range [][3]float32{{2 - 0x1p-22, 1 + 0x1p-23, 0x1p25 + 4}, {0x1p-75 * (1 + 0x1p-23), 0x1p-75 * (1 - 0x1p-23), 0x1p-127 + 0x1p-149}} {
		pa, pb := make([]float32, 2*microM), make([]float32, 2*microN)
		for i := 0; i < microM; i++ {
			pa[i], pa[microM+i] = 1, x[0]
		}
		for j := 0; j < microN; j++ {
			pb[j], pb[microN+j] = x[2], x[1]
		}
		c := make([]float32, microM*microN)
		kern4x16FMA(2, pa, pb, microN, c, microN, microM)
		if want := fma32(x[0], x[1], x[2]); c[0] != want || c[len(c)-1] != want {
			t.Fatalf("fma(%x, %x, %x): assembly %x, fma32 %x", x[0], x[1], x[2], c[0], want)
		}
	}
}

// FuzzSkinnyKernels is the byte-seeded differential: four bytes are the raw
// bits of one operand value and the count of values picks k.
func FuzzSkinnyKernels(f *testing.F) {
	if !hasAVX2FMA() {
		f.Skip("no AVX2+FMA on this CPU")
	}
	var seed []byte
	for _, x := range []float32{0.5, -3, 0x1p-149, math.MaxFloat32, float32(math.Inf(-1)), 0, 2 - 0x1p-22, 1 + 0x1p-23, 0x1p25 + 4, 1.5, 1e-30} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(x))
	}
	f.Add(seed)
	f.Add(seed[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(vals) == 0 {
			return
		}
		checkSkinnyKernels(t, vals, len(vals)%67)
	})
}
