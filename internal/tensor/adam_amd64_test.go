//go:build amd64

package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestAdamKernelMatchesPortable calls the assembly path and the portable
// update directly (not through the adamRange switch): lengths 0–67 hit every
// tail length on either side of one to eight blocks, and the edge-case
// inputs of checkAdamImpls must come out bit-equal after 1 and 50 steps.
func TestAdamKernelMatchesPortable(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	for n := 0; n <= 67; n++ {
		for seed := uint64(1); seed <= 4; seed++ {
			checkAdamImpls(t, adamRangeAVX2, adamRangeGo, seed, n, 50)
		}
	}
	checkAdamImpls(t, adamRangeAVX2, adamRangeGo, 9, 4099, 50)
}

// FuzzAdamKernel is the byte-seeded differential: 16 bytes per element are
// the raw bits of w, g, m and v, the first 12 choose the hyperparameters.
// NaNs are folded onto one pattern and β1, β2 kept inside (0, 1) for the
// reason checkAdamImpls gives: a hyperparameter of 0 or ∞ can turn an
// infinite operand into a second, differently signed NaN.
func FuzzAdamKernel(f *testing.F) {
	if !hasAVX2FMA() {
		f.Skip("no AVX2+FMA on this CPU")
	}
	seed := make([]byte, 12+16*2)
	binary.LittleEndian.PutUint32(seed[0:], math.Float32bits(1e-3))
	binary.LittleEndian.PutUint32(seed[4:], math.Float32bits(1e-8))
	binary.LittleEndian.PutUint16(seed[8:], 58983)  // β1 ≈ 0.9
	binary.LittleEndian.PutUint16(seed[10:], 65471) // β2 ≈ 0.999
	for i, x := range []float32{0.5, 0, 0x1p-125, 0x1p-124, adamNaN, float32(math.Inf(-1)), float32(math.Inf(1)), 0x1p-140} {
		binary.LittleEndian.PutUint32(seed[12+4*i:], math.Float32bits(x))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		float := func(b []byte) float32 {
			x := math.Float32frombits(binary.LittleEndian.Uint32(b))
			if x != x {
				return adamNaN
			}
			return x
		}
		finite := func(x, otherwise float32) float32 {
			if x != x || x-x != 0 {
				return otherwise
			}
			return x
		}
		alpha, eps := finite(float(data[0:]), 1e-3), finite(float(data[4:]), 1e-8)
		b1 := (float32(binary.LittleEndian.Uint16(data[8:])) + 1) / 65538
		b2 := (float32(binary.LittleEndian.Uint16(data[10:])) + 1) / 65538
		data = data[12:]
		n := len(data) / 16
		var kern, port [4][]float32 // w, g, m, v
		for k := range kern {
			kern[k], port[k] = make([]float32, n), make([]float32, n)
			for i := 0; i < n; i++ {
				kern[k][i] = float(data[16*i+4*k:])
				port[k][i] = kern[k][i]
			}
		}
		for step := 0; step < 3; step++ {
			adamRangeAVX2(kern[0], kern[1], kern[2], kern[3], alpha, b1, b2, eps)
			adamRangeGo(port[0], port[1], port[2], port[3], alpha, b1, b2, eps)
			for k, name := range []string{"values", "g", "m", "v"} {
				for i := range kern[k] {
					if x, y := math.Float32bits(kern[k][i]), math.Float32bits(port[k][i]); x != y {
						t.Fatalf("step %d: %s[%d] kernel %#08x, portable %#08x (α %g β1 %g β2 %g ε %g)", step, name, i, x, y, alpha, b1, b2, eps)
					}
				}
			}
		}
	})
}

// TestAdamSumKernelMatchesPortable calls adamSumRangeAVX2 and the portable
// pass directly: lengths 0–67 from every start offset up to 9, one to four
// sources, all, none or only a bystander slab cleared.
func TestAdamSumKernelMatchesPortable(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	for n := 0; n <= 67; n++ {
		for lo := 0; lo <= min(n, 9); lo++ {
			for nsrc := 1; nsrc <= 4; nsrc++ {
				for _, clear := range []int{0, nsrc, -1} {
					checkAdamSumImpls(t, adamSumRangeAVX2, adamSumRangeGo, uint64(lo+1), n, nsrc, clear, lo, 1/float32(nsrc), 3)
				}
			}
		}
	}
}

// FuzzUpdateKernel is the byte-seeded differential of the summing update
// (AdamSumStep's kernel) against its portable twin. The first 12 bytes
// choose α, ε, β1 and β2 as in FuzzAdamKernel; the next 4 the scale; then
// one byte the source count (1–4), one which sources the pass clears, one
// the start of the range. After that, 4·(3+sources) bytes per element are
// the raw bits of w, m, v and the sources, up to 67 elements, so every tail
// length runs. NaNs are folded onto one pattern; a NaN that arithmetic
// makes may differ in sign, which sameBits allows.
func FuzzUpdateKernel(f *testing.F) {
	if !hasAVX2FMA() {
		f.Skip("no AVX2+FMA on this CPU")
	}
	seed := make([]byte, 19+4*5*9)
	binary.LittleEndian.PutUint32(seed[0:], math.Float32bits(1e-3))
	binary.LittleEndian.PutUint32(seed[4:], math.Float32bits(1e-8))
	binary.LittleEndian.PutUint16(seed[8:], 58983)  // β1 ≈ 0.9
	binary.LittleEndian.PutUint16(seed[10:], 65471) // β2 ≈ 0.999
	binary.LittleEndian.PutUint32(seed[12:], math.Float32bits(0.5))
	seed[16], seed[17], seed[18] = 1, 3, 1 // two sources, both cleared, from 1
	for i, x := range []float32{0.5, 0, 0x1p-125, 0x1p-124, adamNaN, float32(math.Inf(-1)), float32(math.Inf(1)), 0x1p-140, -3} {
		for k := 0; k < 5; k++ {
			binary.LittleEndian.PutUint32(seed[19+4*(5*i+k):], math.Float32bits(x))
		}
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 19 {
			return
		}
		float := func(b []byte) float32 {
			x := math.Float32frombits(binary.LittleEndian.Uint32(b))
			if x != x {
				return adamNaN
			}
			return x
		}
		finite := func(x, otherwise float32) float32 {
			if x != x || x-x != 0 {
				return otherwise
			}
			return x
		}
		alpha, eps := finite(float(data[0:]), 1e-3), finite(float(data[4:]), 1e-8)
		b1 := (float32(binary.LittleEndian.Uint16(data[8:])) + 1) / 65538
		b2 := (float32(binary.LittleEndian.Uint16(data[10:])) + 1) / 65538
		scale := finite(float(data[12:]), 1)
		nsrc := 1 + int(data[16]%4)
		clearMask, start := data[17], int(data[18])
		data = data[19:]
		width := 3 + nsrc
		n := min(len(data)/(4*width), 67)
		lo := start % (n + 1)
		var kern, port [7][]float32 // w, m, v, sources
		for k := 0; k < width; k++ {
			kern[k], port[k] = make([]float32, n), make([]float32, n)
			for i := 0; i < n; i++ {
				kern[k][i] = float(data[4*(width*i+k):])
				port[k][i] = kern[k][i]
			}
		}
		var kz, pz [][]float32
		for s := 0; s < nsrc; s++ {
			if clearMask>>s&1 == 1 {
				kz, pz = append(kz, kern[3+s]), append(pz, port[3+s])
			}
		}
		for step := 0; step < 3; step++ {
			adamSumRangeAVX2(kern[0], kern[1], kern[2], kern[3:width], kz, lo, n, scale, alpha, b1, b2, eps)
			adamSumRangeGo(port[0], port[1], port[2], port[3:width], pz, lo, n, scale, alpha, b1, b2, eps)
			for k := 0; k < width; k++ {
				for i := range kern[k] {
					if !sameBits(kern[k][i], port[k][i]) {
						t.Fatalf("step %d: slab %d [%d] kernel %#08x, portable %#08x (sources %d, from %d, α %g β1 %g β2 %g ε %g scale %g)",
							step, k, i, math.Float32bits(kern[k][i]), math.Float32bits(port[k][i]), nsrc, lo, alpha, b1, b2, eps, scale)
					}
				}
			}
		}
	})
}
