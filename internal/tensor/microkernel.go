package tensor

import "math"

// The register-tiled micro-kernel at the heart of the blocked GEMM (see the
// package comment for the full blocking scheme). It computes a single
// mr×nr = 4×16 output tile
//
//	c[0:4, 0:16] += pa · pb
//
// pa is a packed A micro-panel, kc steps of 4 values, zero-padded on a row
// tail (pack.go); pb supplies 16 B-values per step, from a packed panel or
// straight from the matrix (see kern4x16). The kernel always runs the full
// 4×16 tile and edge clipping happens at store time.
//
// Per k-step the kernel performs 4 broadcasts, 2 vector loads and 8
// fused multiply-adds with the 64 accumulators held in registers (8 YMM on
// amd64) — no loads or stores of c inside the k-loop, which is what lifts
// throughput past the scalar axpy kernel's 2-flops-per-cycle memory-op
// ceiling.

const (
	microM = 4  // micro-tile rows (mr)
	microN = 16 // micro-tile cols (nr)
)

// kern4x16 is the active micro-kernel: c[r*ldc : r*ldc+16] += row r of
// pa·B for r in [0,4), where step p of B is pb[p*ldb : p*ldb+16] — ldb = 16
// for a packed panel, b.Cols for 16 columns of a matrix read in place. On
// amd64 with AVX2+FMA it is the assembly kernel in microkernel_amd64.s,
// everywhere else kern4x16Go; dot4x2 pairs the same way. Each portable twin
// is the statement of its kernel's arithmetic and bit-equal to it, so which
// one runs is not observable.
var (
	kern4x16 = kern4x16Go
	dot4x2   = dot4x2Go
)

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

// kern4x16Go is the portable micro-kernel: per element one fused chain
// from zero over ascending p, then one add into c.
func kern4x16Go(kc int, pa, pb []float32, ldb int, c []float32, ldc int) {
	var acc [microM][microN]float32
	for p := 0; p < kc; p++ {
		bp := pb[ldb*p : ldb*p+microN : ldb*p+microN]
		ap := pa[microM*p : microM*p+microM : microM*p+microM]
		for r := 0; r < microM; r++ {
			a := ap[r]
			cr := &acc[r]
			for j := 0; j < microN; j++ {
				cr[j] = fma32(a, bp[j], cr[j])
			}
		}
	}
	for r := 0; r < microM; r++ {
		cr := c[r*ldc : r*ldc+microN : r*ldc+microN]
		ar := &acc[r]
		for j := 0; j < microN; j++ {
			cr[j] += ar[j]
		}
	}
}

// dot4x2Go is the portable a·bᵀ kernel: out[2r+c] = a[r*lda:][:k] ·
// w[c*ldw:][:k] for r in [0,4), c in [0,2). Eight partial sums each fuse the
// terms p ≡ l (mod 8) below k&^7 in ascending order; they are added as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) and the last k&7 terms are fused
// onto that sum in order, so a dot's rounding is a function of k alone.
func dot4x2Go(k int, a []float32, lda int, w []float32, ldw int, out *[8]float32) {
	for i := range out {
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
