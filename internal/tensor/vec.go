package tensor

import (
	"encoding/binary"
	"math"
)

// Axpy computes y += a*x element-wise. The four-way unrolled body helps the
// compiler keep the accumulator stream in registers; it is the hot loop of
// both GEMM and the optimizers.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// Dot returns the inner product of x and y, accumulated in float64 for
// stability on long vectors: each float32 product is exact in float64, so
// the only rounding is the final sum and the closing float32 conversion.
// Four independent accumulator chains keep the conversion off the loop's
// critical path.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += float64(x[i]) * float64(y[i])
		s1 += float64(x[i+1]) * float64(y[i+1])
		s2 += float64(x[i+2]) * float64(y[i+2])
		s3 += float64(x[i+3]) * float64(y[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += float64(x[i]) * float64(y[i])
	}
	return float32(s)
}

// Zero clears x in place.
func Zero(x []float32) { clear(x) }

// The elementwise family (contract in the package comment, "Elementwise
// kernels"). Each exported function checks its lengths and calls the active
// implementation: the AVX2 kernel of vec_amd64.s where microkernel_amd64.go's
// CPU check passed, the portable loop below it everywhere else and for the
// kernel's n mod 8 tail.
var (
	vecAdd          = addGo
	vecAddReLU      = addReLUGo
	vecReLUGradBias = reluGradBiasGo
	vecSubScale     = subScaleGo
	vecSqDiffLanes  = sqDiffLanesGo
	vecAffineNorm   = affineNormGo
	vecF64ToF32     = f64ToF32Go
	vecPutF32LE     = putF32LEGo
	vecGetF32LE     = getF32LEGo
)

// Add accumulates src into dst element-wise: dst[i] += src[i].
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	vecAdd(dst, src)
}

// AddReLU is the bias+ReLU epilogue: dst[i] = dst[i]+src[i] where that sum
// is greater than zero and +0 everywhere else, a NaN sum included.
func AddReLU(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: AddReLU length mismatch")
	}
	vecAddReLU(dst, src)
}

// ReLUGradBias is one row of the fused ReLU backward pass: dz[i] is dy[i]
// where the recorded activation y[i] is not ≤ 0 (so a NaN activation passes
// the gradient) and +0 elsewhere, and bgrad[i] += dz[i].
func ReLUGradBias(dz, dy, y, bgrad []float32) {
	if len(dy) != len(dz) || len(y) != len(dz) || len(bgrad) != len(dz) {
		panic("tensor: ReLUGradBias length mismatch")
	}
	vecReLUGradBias(dz, dy, y, bgrad)
}

// SubScale writes dst[i] = s·(a[i] − b[i]).
func SubScale(dst, a, b []float32, s float32) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("tensor: SubScale length mismatch")
	}
	vecSubScale(dst, a, b, s)
}

// SqDiffSum returns Σ (a[i] − b[i])² in float64, in the order the package
// comment states: eight partial sums over the whole blocks, the fixed tree
// below, then the n mod 8 tail one element at a time.
func SqDiffSum(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: SqDiffSum length mismatch")
	}
	l := vecSqDiffLanes(a, b)
	s := ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
	for i := len(a) &^ 7; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s
}

// AffineNorm writes dst[i] = (src[i] − min)/span, a true division.
func AffineNorm(dst, src []float32, min, span float32) {
	if len(dst) != len(src) {
		panic("tensor: AffineNorm length mismatch")
	}
	vecAffineNorm(dst, src, min, span)
}

// F64ToF32 rounds src to float32 (nearest even) into dst.
func F64ToF32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: F64ToF32 length mismatch")
	}
	vecF64ToF32(dst, src)
}

// PutF32LE writes src's bits into dst as little-endian 32-bit words; dst
// must hold at least 4·len(src) bytes.
func PutF32LE(dst []byte, src []float32) {
	if len(dst) < 4*len(src) {
		panic("tensor: PutF32LE short destination")
	}
	vecPutF32LE(dst, src)
}

// GetF32LE is the mirror of PutF32LE: it fills dst from the first
// 4·len(dst) bytes of src.
func GetF32LE(dst []float32, src []byte) {
	if len(src) < 4*len(dst) {
		panic("tensor: GetF32LE short source")
	}
	vecGetF32LE(dst, src)
}

func addGo(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

func addReLUGo(dst, src []float32) {
	for i, v := range src {
		if x := dst[i] + v; x > 0 {
			dst[i] = x
		} else {
			dst[i] = 0
		}
	}
}

func reluGradBiasGo(dz, dy, y, bgrad []float32) {
	for i, g := range dy {
		if y[i] <= 0 {
			g = 0
		}
		dz[i] = g
		bgrad[i] += g
	}
}

func subScaleGo(dst, a, b []float32, s float32) {
	for i := range dst {
		dst[i] = s * (a[i] - b[i])
	}
}

// sqDiffLanesGo returns l[j] = Σ (a[i]−b[i])² over i ≡ j mod 8 within the
// whole blocks of eight. The square is rounded by an explicit conversion
// before it is added, which forbids the fused multiply-add a compiler may
// otherwise emit (arm64 does).
func sqDiffLanesGo(a, b []float32) (l [8]float64) {
	for i := 0; i+8 <= len(a); i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		for j := range l {
			d := float64(x[j]) - float64(y[j])
			l[j] += float64(d * d)
		}
	}
	return l
}

func affineNormGo(dst, src []float32, min, span float32) {
	for i, v := range src {
		dst[i] = (v - min) / span
	}
}

func f64ToF32Go(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// putF32LEGo and getF32LEGo unroll eight wide: binary.LittleEndian compiles
// to a single store or load on little-endian targets, so the unroll
// amortizes the slice bookkeeping, not the swap.
func putF32LEGo(dst []byte, src []float32) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		b := dst[i*4 : i*4+32 : i*4+32]
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(src[i+0]))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(src[i+1]))
		binary.LittleEndian.PutUint32(b[8:12], math.Float32bits(src[i+2]))
		binary.LittleEndian.PutUint32(b[12:16], math.Float32bits(src[i+3]))
		binary.LittleEndian.PutUint32(b[16:20], math.Float32bits(src[i+4]))
		binary.LittleEndian.PutUint32(b[20:24], math.Float32bits(src[i+5]))
		binary.LittleEndian.PutUint32(b[24:28], math.Float32bits(src[i+6]))
		binary.LittleEndian.PutUint32(b[28:32], math.Float32bits(src[i+7]))
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint32(dst[i*4:i*4+4], math.Float32bits(src[i]))
	}
}

func getF32LEGo(dst []float32, src []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		b := src[i*4 : i*4+32 : i*4+32]
		dst[i+0] = math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))
		dst[i+1] = math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))
		dst[i+2] = math.Float32frombits(binary.LittleEndian.Uint32(b[8:12]))
		dst[i+3] = math.Float32frombits(binary.LittleEndian.Uint32(b[12:16]))
		dst[i+4] = math.Float32frombits(binary.LittleEndian.Uint32(b[16:20]))
		dst[i+5] = math.Float32frombits(binary.LittleEndian.Uint32(b[20:24]))
		dst[i+6] = math.Float32frombits(binary.LittleEndian.Uint32(b[24:28]))
		dst[i+7] = math.Float32frombits(binary.LittleEndian.Uint32(b[28:32]))
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4 : i*4+4]))
	}
}
