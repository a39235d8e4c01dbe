package tensor

import "math"

// The register-tiled micro-kernel at the heart of the blocked GEMM (see the
// package comment for the full blocking scheme). One call computes up to
// kern.rows rows of a 16-column output tile
//
//	c[0:rows, 0:16] += pa · pb
//
// pa is ⌈rows/4⌉ consecutive packed A micro-panels, each kc steps of 4
// values, zero-padded on a row tail (pack.go); pb supplies 16 B-values per
// step, from a packed panel or straight from the matrix. Only the first
// rows rows of c are read and written; a column tail goes through edgeTile.
//
// Per k-step the 4-row kernels perform 4 broadcasts, 2 vector loads and 8
// fused multiply-adds with the 64 accumulators held in registers (8 YMM on
// amd64), the 12-row kernel one 64-byte load and 12 multiply-adds whose A
// operand is broadcast from memory (12 ZMM) — no loads or stores of c
// inside the k-loop, which is what lifts throughput past the scalar axpy
// kernel's 2-flops-per-cycle memory-op ceiling.

const (
	microM      = 4  // micro-panel rows (mr)
	microN      = 16 // micro-tile cols (nr)
	maxKernRows = 12 // the most rows any level's tile kernel covers per call
)

// kernels is one level of micro-kernels. Every level computes every output
// element by the same chain of operations — kern4x16Go and dot4x2Go are the
// statement of it — so the levels are bit-equal and which one runs is not
// observable (TestKernelLevelsBitEqual); a level differs only in how many
// elements a call covers.
type kernels struct {
	name string
	// tile: c[r*ldc : r*ldc+16] += row r of pa·B for r in [0, rows), rows ≤
	// this level's rows, where step p of B is pb[p*ldb : p*ldb+16] — ldb =
	// 16 for a packed panel, b.Cols for 16 columns of a matrix read in
	// place — and panel i of pa starts at pa[4*kc*i].
	tile func(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int)
	rows int
	// dot4x2: out[2r+c] = a[r*lda:][:k] · w[c*ldw:][:k], r in [0,4), c in
	// [0,2). dot4x4, where the level has one: out[4r+c], c in [0,4).
	dot4x2, dot4x4 func(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32)
}

// levels are the kernel levels this machine can run, ascending: the portable
// loops everywhere, then on amd64 what the CPU check in microkernel_amd64.go
// finds — AVX2+FMA (4 rows per tile call, 4×2 dots), AVX-512F (12 rows, 4×4
// dots). kern is the active one, the highest; it is set once at init and
// read by the drivers, and only tests ever point it elsewhere.
var (
	levels = []kernels{{name: "portable", tile: kern4x16Go, rows: microM, dot4x2: dot4x2Go}}
	kern   = levels[0]
)

// pinKernelLevel makes the named level the active one and returns the call
// that restores the previous one, or nil if this machine cannot run it. It
// is the test hook — tests in this package call it, tests elsewhere reach it
// through internal/testlevel — and nothing else may: there is no flag or
// environment variable behind it.
func pinKernelLevel(name string) (restore func()) {
	for _, l := range levels {
		if l.name == name {
			old := kern
			kern = l
			return func() { kern = old }
		}
	}
	return nil
}

// fma32 is the float32 fused multiply-add, a·b + c rounded once. The
// product is exact in float64 and s is the sum rounded to 53 bits; rounding
// s again to 24 bits goes wrong only if s is a float32 tie (or subnormal,
// where ties sit elsewhere) that the exact sum is not. Then s is moved to
// its odd neighbour on the exact sum's side first — round-to-odd, after
// which the second rounding is the correct one (Boldo & Melquiond).
func fma32(a, b, c float32) float32 {
	p, z := float64(a)*float64(b), float64(c)
	s := p + z
	bits := math.Float64bits(s)
	if bits&(1<<29-1) != 1<<28 && !(math.Abs(s) < minNormal32) {
		return float32(s)
	}
	t := s - p
	if e := (p - (s - t)) + (z - t); e != 0 && bits&1 == 0 { // TwoSum: p + z = s + e
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
	}
	return float32(math.Float64frombits(bits))
}

// kern4x16Go is the portable micro-kernel, panel by panel: per element one
// fused chain from zero over ascending p, then one add into c. It takes any
// number of rows.
func kern4x16Go(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int) {
	for r0 := 0; r0 < rows; r0 += microM {
		var acc [microM][microN]float32
		panel := pa[r0*kc:]
		for p := 0; p < kc; p++ {
			bp := pb[ldb*p : ldb*p+microN : ldb*p+microN]
			ap := panel[microM*p : microM*p+microM : microM*p+microM]
			for r := 0; r < microM; r++ {
				a := ap[r]
				cr := &acc[r]
				for j := 0; j < microN; j++ {
					cr[j] = fma32(a, bp[j], cr[j])
				}
			}
		}
		for r := 0; r < min(microM, rows-r0); r++ {
			cr := c[(r0+r)*ldc : (r0+r)*ldc+microN : (r0+r)*ldc+microN]
			ar := &acc[r]
			for j := 0; j < microN; j++ {
				cr[j] += ar[j]
			}
		}
	}
}

// dot4x2Go is the portable a·bᵀ kernel: out[2r+c] = a[r*lda:][:k] ·
// w[c*ldw:][:k] for r in [0,4), c in [0,2). Eight partial sums each fuse the
// terms p ≡ l (mod 8) below k&^7 in ascending order; they are added as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) and the last k&7 terms are fused
// onto that sum in order, so a dot's rounding is a function of k alone.
func dot4x2Go(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32) {
	for i := range out[:2*microM] {
		ar, wc := a[i/2*lda:][:k], w[i%2*ldw:][:k]
		var l [8]float32
		for p := 0; p+8 <= k; p += 8 {
			for j := range l {
				l[j] = fma32(ar[p+j], wc[p+j], l[j])
			}
		}
		s := ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
		for p := k &^ 7; p < k; p++ {
			s = fma32(ar[p], wc[p], s)
		}
		out[i] = s
	}
}
