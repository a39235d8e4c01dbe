//go:build amd64

#include "textflag.h"

// func kern4x16FMA(kc int, pa, pb []float32, ldb int, c []float32, ldc int)
//
// 4×16 register-tiled GEMM micro-kernel. pa is a packed 4-row A panel; step
// p of B is the 16 floats at pb[p*ldb:], so ldb = 16 walks a packed panel
// and ldb = b.Cols walks 16 columns of a weight matrix where it lies:
//
//	c[r*ldc : r*ldc+16] += Σ_p pa[4p+r] * pb[p*ldb : p*ldb+16]   r = 0..3
//
// The eight YMM accumulators (Y0–Y7, two per row) stay resident for the
// whole k-loop; each step issues 2 B loads, 4 broadcasts and 8
// vfmadd231ps. Each element is one fused chain from zero in ascending p,
// the order kern4x16Go states, and the two are bit-equal.
TEXT ·kern4x16FMA(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ pb_base+32(FP), DI
	MOVQ ldb+56(FP), R8
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), BX
	SHLQ $2, R8             // B step stride in bytes
	SHLQ $2, BX             // C row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPS      (DI), Y12      // pb[p*ldb : p*ldb+8]
	VMOVUPS      32(DI), Y13    // pb[p*ldb+8 : p*ldb+16]
	VBROADCASTSS (SI), Y14      // pa[4p+0]
	VBROADCASTSS 4(SI), Y15     // pa[4p+1]
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14     // pa[4p+2]
	VBROADCASTSS 12(SI), Y15    // pa[4p+3]
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	ADDQ         $16, SI
	ADDQ         R8, DI
	DECQ         CX
	JNZ          loop

store:
	VMOVUPS (DX), Y14
	VADDPS  Y0, Y14, Y14
	VMOVUPS Y14, (DX)
	VMOVUPS 32(DX), Y15
	VADDPS  Y1, Y15, Y15
	VMOVUPS Y15, 32(DX)
	ADDQ    BX, DX

	VMOVUPS (DX), Y14
	VADDPS  Y2, Y14, Y14
	VMOVUPS Y14, (DX)
	VMOVUPS 32(DX), Y15
	VADDPS  Y3, Y15, Y15
	VMOVUPS Y15, 32(DX)
	ADDQ    BX, DX

	VMOVUPS (DX), Y14
	VADDPS  Y4, Y14, Y14
	VMOVUPS Y14, (DX)
	VMOVUPS 32(DX), Y15
	VADDPS  Y5, Y15, Y15
	VMOVUPS Y15, 32(DX)
	ADDQ    BX, DX

	VMOVUPS (DX), Y14
	VADDPS  Y6, Y14, Y14
	VMOVUPS Y14, (DX)
	VMOVUPS 32(DX), Y15
	VADDPS  Y7, Y15, Y15
	VMOVUPS Y15, 32(DX)

	VZEROUPPER
	RET

// func dot4x2FMA(k int, a []float32, lda int, w []float32, ldw int, out *[8]float32)
//
// Eight inner products of length k at once, rows a[r*lda:] (r = 0..3)
// against rows w[c*ldw:] (c = 0, 1), into out[2r+c]. Lane l of an
// accumulator fuses the terms p ≡ l (mod 8), p < k&^7, in ascending order
// from zero; the lanes are summed as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))
// and the k&7 tail terms are fused onto that sum one by one — the order
// dot4x2Go states, bit-equal to it and a function of k alone.
TEXT ·dot4x2FMA(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ lda+32(FP), R8
	MOVQ w_base+40(FP), DI
	MOVQ ldw+64(FP), R9
	MOVQ out+72(FP), DX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R8*1), R12    // a rows 1, 2, 3
	LEAQ (SI)(R8*2), R10
	LEAQ (R10)(R8*1), R13
	LEAQ (DI)(R9*1), R11    // w row 1
	XORQ AX, AX             // byte offset of p

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   reduce

vec:
	VMOVUPS     (DI)(AX*1), Y8
	VMOVUPS     (R11)(AX*1), Y9
	VMOVUPS     (SI)(AX*1), Y10
	VMOVUPS     (R12)(AX*1), Y11
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VMOVUPS     (R10)(AX*1), Y10
	VMOVUPS     (R13)(AX*1), Y11
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VFMADD231PS Y8, Y11, Y6
	VFMADD231PS Y9, Y11, Y7
	ADDQ        $32, AX
	DECQ        BX
	JNZ         vec

reduce:
// HSUM leaves ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) of Y's lanes in X.
#define HSUM(Y, X) \
	VEXTRACTF128 $1, Y, X12; \
	VADDPS       X12, X, X;  \
	VMOVHLPS     X, X, X12;  \
	VADDPS       X12, X, X;  \
	VMOVSHDUP    X, X12;     \
	VADDSS       X12, X, X
	HSUM(Y0, X0)
	HSUM(Y1, X1)
	HSUM(Y2, X2)
	HSUM(Y3, X3)
	HSUM(Y4, X4)
	HSUM(Y5, X5)
	HSUM(Y6, X6)
	HSUM(Y7, X7)

	ANDQ $7, CX
	JZ   store

tail:
	VMOVSS      (DI)(AX*1), X8
	VMOVSS      (R11)(AX*1), X9
	VMOVSS      (SI)(AX*1), X10
	VMOVSS      (R12)(AX*1), X11
	VFMADD231SS X8, X10, X0
	VFMADD231SS X9, X10, X1
	VFMADD231SS X8, X11, X2
	VFMADD231SS X9, X11, X3
	VMOVSS      (R10)(AX*1), X10
	VMOVSS      (R13)(AX*1), X11
	VFMADD231SS X8, X10, X4
	VFMADD231SS X9, X10, X5
	VFMADD231SS X8, X11, X6
	VFMADD231SS X9, X11, X7
	ADDQ        $4, AX
	DECQ        CX
	JNZ         tail

store:
	VMOVSS X0, (DX)
	VMOVSS X1, 4(DX)
	VMOVSS X2, 8(DX)
	VMOVSS X3, 12(DX)
	VMOVSS X4, 16(DX)
	VMOVSS X5, 20(DX)
	VMOVSS X6, 24(DX)
	VMOVSS X7, 28(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
