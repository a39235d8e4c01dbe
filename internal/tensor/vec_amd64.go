//go:build amd64

package tensor

// Declarations of vec_amd64.s and the wrappers init (microkernel_amd64.go)
// installs: whole blocks of eight through the kernel, the tail through the
// portable loop.

//go:noescape
func scalBlocksAVX2(a float32, x []float32)

//go:noescape
func addBlocksAVX2(dst, src []float32)

//go:noescape
func addReLUBlocksAVX2(dst, src []float32)

//go:noescape
func reluGradBiasBlocksAVX2(dz, dy, y, bgrad []float32)

//go:noescape
func subScaleBlocksAVX2(dst, a, b []float32, s float32)

//go:noescape
func sqDiffLanesAVX2(a, b []float32) (l [8]float64)

//go:noescape
func affineNormBlocksAVX2(dst, src []float32, min, span float32)

//go:noescape
func f64ToF32BlocksAVX2(dst []float32, src []float64)

//go:noescape
func putF32LEBlocksAVX2(dst []byte, src []float32)

//go:noescape
func getF32LEBlocksAVX2(dst []float32, src []byte)

func scalAVX2(a float32, x []float32) {
	scalBlocksAVX2(a, x)
	scalGo(a, x[len(x)&^7:])
}

func addAVX2(dst, src []float32) {
	addBlocksAVX2(dst, src)
	n := len(dst) &^ 7
	addGo(dst[n:], src[n:])
}

func addReLUAVX2(dst, src []float32) {
	addReLUBlocksAVX2(dst, src)
	n := len(dst) &^ 7
	addReLUGo(dst[n:], src[n:])
}

func reluGradBiasAVX2(dz, dy, y, bgrad []float32) {
	reluGradBiasBlocksAVX2(dz, dy, y, bgrad)
	n := len(dz) &^ 7
	reluGradBiasGo(dz[n:], dy[n:], y[n:], bgrad[n:])
}

func subScaleAVX2(dst, a, b []float32, s float32) {
	subScaleBlocksAVX2(dst, a, b, s)
	n := len(dst) &^ 7
	subScaleGo(dst[n:], a[n:], b[n:], s)
}

func affineNormAVX2(dst, src []float32, min, span float32) {
	affineNormBlocksAVX2(dst, src, min, span)
	n := len(dst) &^ 7
	affineNormGo(dst[n:], src[n:], min, span)
}

func f64ToF32AVX2(dst []float32, src []float64) {
	f64ToF32BlocksAVX2(dst, src)
	n := len(dst) &^ 7
	f64ToF32Go(dst[n:], src[n:])
}

func putF32LEAVX2(dst []byte, src []float32) {
	putF32LEBlocksAVX2(dst, src)
	n := len(src) &^ 7
	putF32LEGo(dst[4*n:], src[n:])
}

func getF32LEAVX2(dst []float32, src []byte) {
	getF32LEBlocksAVX2(dst, src)
	n := len(dst) &^ 7
	getF32LEGo(dst[n:], src[4*n:])
}
