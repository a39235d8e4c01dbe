//go:build amd64

package tensor

// Runtime selection of the assembly kernels. The Go toolchain does not
// auto-vectorize, so the 16-wide tile columns, the 8-lane Adam update and
// the elementwise family only pay off through the hand-written kernels in
// microkernel_amd64.s, adam_amd64.s and vec_amd64.s; all are enabled once
// at process start when CPUID reports FMA+AVX2 and the OS has enabled YMM
// state (OSXSAVE with XCR0 SSE+AVX bits). Everything is stdlib-free so the
// tensor package stays dependency-less.

//go:noescape
func kern4x16FMA(kc int, pa, pb []float32, ldb int, c []float32, ldc int)

//go:noescape
func dot4x2FMA(k int, a []float32, lda int, w []float32, ldw int, out *[8]float32)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	xcr0AVXState = 0x6     // XMM + YMM state enabled by the OS
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

func init() {
	if hasAVX2FMA() {
		kern4x16, dot4x2 = kern4x16FMA, dot4x2FMA
		adamRange = adamRangeAVX2
		vecScal, vecAdd, vecAddReLU = scalAVX2, addAVX2, addReLUAVX2
		vecReLUGradBias, vecSubScale, vecSqDiffLanes = reluGradBiasAVX2, subScaleAVX2, sqDiffLanesAVX2
		vecAffineNorm, vecF64ToF32 = affineNormAVX2, f64ToF32AVX2
		vecPutF32LE, vecGetF32LE = putF32LEAVX2, getF32LEAVX2
	}
}
