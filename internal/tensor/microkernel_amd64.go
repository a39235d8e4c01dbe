//go:build amd64

package tensor

// Runtime selection of the assembly kernels. The Go toolchain does not
// auto-vectorize, so the 16-wide tile columns, the 8-lane Adam update and
// the elementwise family only pay off through the hand-written kernels in
// microkernel_amd64.s, adam_amd64.s and vec_amd64.s; all are enabled once
// at process start when CPUID reports FMA+AVX2 and the OS has enabled YMM
// state (OSXSAVE with XCR0 SSE+AVX bits). Where CPUID also reports AVX-512F
// and the OS saves the opmask and ZMM state, the two GEMM kernels run their
// 512-bit twins; Adam and the elementwise family have none (the package
// comment, Kernel levels, says why). Everything is stdlib-free so the
// tensor package stays dependency-less.

// kern4x16FMA is the AVX2 tile kernel, rows ≤ 4; kern12x16 the AVX-512 one,
// rows ≤ 12 over up to three consecutive panels.
//
//go:noescape
func kern4x16FMA(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int)

//go:noescape
func kern12x16(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int)

// dot4x2FMA writes out[0:8]; dot4x4 (AVX-512) all sixteen.
//
//go:noescape
func dot4x2FMA(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32)

//go:noescape
func dot4x4(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX
	xcr0AVXState = 0x6     // XMM + YMM state enabled by the OS
	xcr0ZMMState = 0xe6    // and the opmask registers and both ZMM halves
)

// hasAVX2FMA reports whether the CPU and the OS support the kernels.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidFMA == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&cpuidAVX2 == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&xcr0AVXState == xcr0AVXState
}

// hasAVX512F reports whether, on top of hasAVX2FMA, the CPU has the
// AVX-512 foundation instructions (all the ZMM kernels use) and the OS
// saves their state.
func hasAVX512F() bool {
	if !hasAVX2FMA() {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	eax, _ := xgetbv()
	return ebx7&cpuidAVX512F != 0 && eax&xcr0ZMMState == xcr0ZMMState
}

func init() {
	if hasAVX2FMA() {
		levels = append(levels, kernels{name: "avx2", tile: kern4x16FMA, rows: microM, dot4x2: dot4x2FMA})
		if hasAVX512F() {
			levels = append(levels, kernels{name: "avx512", tile: kern12x16, rows: 3 * microM, dot4x2: dot4x2FMA, dot4x4: dot4x4})
		}
		kern = levels[len(levels)-1]
		adamRange, adamSumRange = adamRangeAVX2, adamSumRangeAVX2
		vecScal, vecAdd, vecAddReLU = scalAVX2, addAVX2, addReLUAVX2
		vecReLUGradBias, vecSubScale, vecSqDiffLanes = reluGradBiasAVX2, subScaleAVX2, sqDiffLanesAVX2
		vecAffineNorm, vecF64ToF32 = affineNormAVX2, f64ToF32AVX2
		vecPutF32LE, vecGetF32LE = putF32LEAVX2, getF32LEAVX2
	}
}
