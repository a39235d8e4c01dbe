//go:build amd64

#include "textflag.h"

// func kern4x16FMA(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int)
//
// 4×16 register-tiled GEMM micro-kernel. pa is a packed 4-row A panel; step
// p of B is the 16 floats at pb[p*ldb:], so ldb = 16 walks a packed panel
// and ldb = b.Cols walks 16 columns of a weight matrix where it lies:
//
//	c[r*ldc : r*ldc+16] += Σ_p pa[4p+r] * pb[p*ldb : p*ldb+16]   r < rows ≤ 4
//
// The eight YMM accumulators (Y0–Y7, two per row) stay resident for the
// whole k-loop; each step issues 2 B loads, 4 broadcasts and 8
// vfmadd231ps. Each element is one fused chain from zero in ascending p,
// the order kern4x16Go states, and the two are bit-equal. Rows of c from
// rows on are not touched.
TEXT ·kern4x16FMA(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ pb_base+32(FP), DI
	MOVQ ldb+56(FP), R8
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), BX
	MOVQ rows+96(FP), R9
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
// STORE2 adds one accumulated row into c and leaves after the last valid one.
#define STORE2(YA, YB) \
	VMOVUPS (DX), Y14;     \
	VADDPS  YA, Y14, Y14;  \
	VMOVUPS Y14, (DX);     \
	VMOVUPS 32(DX), Y15;   \
	VADDPS  YB, Y15, Y15;  \
	VMOVUPS Y15, 32(DX);   \
	ADDQ    BX, DX;        \
	DECQ    R9;            \
	JZ      done
	STORE2(Y0, Y1)
	STORE2(Y2, Y3)
	STORE2(Y4, Y5)
	STORE2(Y6, Y7)

done:
	VZEROUPPER
	RET

// func dot4x2FMA(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32)
//
// Eight inner products of length k at once, rows a[r*lda:] (r = 0..3)
// against rows w[c*ldw:] (c = 0, 1), into out[2r+c]. Lane l of an
// accumulator fuses the terms p ≡ l (mod 8), p < k&^7, in ascending order
// from zero; the lanes are summed as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))
// and the k&7 tail terms are fused onto that sum one by one — the order
// dot4x2Go states, bit-equal to it and a function of k alone. out[8:] is
// not written.
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

// func kern12x16(kc int, pa, pb []float32, ldb int, c []float32, ldc, rows int)
//
// The AVX-512 tile kernel: up to three consecutive packed A panels (panel i
// at pa[4·kc·i:]) against the same 16 floats of B per step,
//
//	c[r*ldc : r*ldc+16] += Σ_p pa[4·kc·(r/4) + 4p + r%4] * pb[p*ldb : p*ldb+16]   r < rows ≤ 12
//
// so a batch of up to twelve rows crosses a 16-column strip of B once. One
// ZMM accumulator per row (Z0–Z11), one 64-byte B load per step, the A
// values embedded-broadcast operands of vfmadd231ps. ⌈rows/4⌉ panels are
// read and that many groups of four accumulators run — the 4- and 8-row
// loops keep a short call (a lone serve row, the last panel of sixteen) off
// the dead multiply-adds. The B line eight steps ahead is prefetched: read in
// place, a weight matrix of 1,024 columns is a new page every step, and
// without it the strided load, not the multiply-adds, sets the pace (68
// against 141 GFLOP/s at twelve rows). An element is the same fused chain from zero in
// ascending p and the same single add into c as in kern4x16FMA and
// kern4x16Go, whichever loop and accumulator it falls in: bit-equal to both.
TEXT ·kern12x16(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ pb_base+32(FP), DI
	MOVQ ldb+56(FP), R8
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), BX
	MOVQ rows+96(FP), R9
	SHLQ $2, R8             // B step stride in bytes
	SHLQ $2, BX             // C row stride in bytes
	MOVQ CX, AX
	SHLQ $4, AX             // panel stride in bytes
	LEAQ (SI)(AX*1), R10    // panel 1
	LEAQ (R10)(AX*1), R11   // panel 2

	VXORPS Y0, Y0, Y0       // VEX: clears the whole ZMM
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	TESTQ CX, CX
	JZ    store

// PANEL is one k-step of a 4-row panel at P against the B values in Z12.
#define PANEL(P, ZA, ZB, ZC, ZD) \
	VFMADD231PS.BCST (P), Z12, ZA;   \
	VFMADD231PS.BCST 4(P), Z12, ZB;  \
	VFMADD231PS.BCST 8(P), Z12, ZC;  \
	VFMADD231PS.BCST 12(P), Z12, ZD; \
	ADDQ             $16, P

	CMPQ R9, $4
	JLE  loop4
	CMPQ R9, $8
	JLE  loop8

loop12:
	VMOVUPS    (DI), Z12
	PREFETCHT0 (DI)(R8*8)
	ADDQ       R8, DI
	PANEL(SI, Z0, Z1, Z2, Z3)
	PANEL(R10, Z4, Z5, Z6, Z7)
	PANEL(R11, Z8, Z9, Z10, Z11)
	DECQ    CX
	JNZ     loop12
	JMP     store

loop8:
	VMOVUPS    (DI), Z12
	PREFETCHT0 (DI)(R8*8)
	ADDQ       R8, DI
	PANEL(SI, Z0, Z1, Z2, Z3)
	PANEL(R10, Z4, Z5, Z6, Z7)
	DECQ    CX
	JNZ     loop8
	JMP     store

loop4:
	VMOVUPS    (DI), Z12
	PREFETCHT0 (DI)(R8*8)
	ADDQ       R8, DI
	PANEL(SI, Z0, Z1, Z2, Z3)
	DECQ    CX
	JNZ     loop4

store:
// STORE adds one accumulated row into c — c first, as kern4x16FMA has it —
// and leaves after the last valid one.
#define STORE(Z) \
	VMOVUPS (DX), Z13;    \
	VADDPS  Z, Z13, Z13;  \
	VMOVUPS Z13, (DX);    \
	ADDQ    BX, DX;       \
	DECQ    R9;           \
	JZ      done
	STORE(Z0)
	STORE(Z1)
	STORE(Z2)
	STORE(Z3)
	STORE(Z4)
	STORE(Z5)
	STORE(Z6)
	STORE(Z7)
	STORE(Z8)
	STORE(Z9)
	STORE(Z10)
	STORE(Z11)

done:
	VZEROUPPER
	RET

// func dot4x4(k int, a []float32, lda int, w []float32, ldw int, out *[16]float32)
//
// Sixteen inner products of length k at once, rows a[r*lda:] (r = 0..3)
// against rows w[c*ldw:] (c = 0..3), into out[4r+c]: dot4x2FMA twice over,
// side by side. A ZMM accumulator is two of that kernel's eight-lane ones —
// the low half runs row r against w row 2q, the high half against row 2q+1
// (a's eight floats broadcast to both halves) — and each half is reduced by
// the same tree, ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), with the k&7 tail
// fused onto the sums in order, so a dot is the same bits as from dot4x2FMA
// and dot4x2Go.
TEXT ·dot4x4(SB), NOSPLIT, $0-80
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
	LEAQ (DI)(R9*1), R11    // w rows 1, 2, 3 (the strides are done with)
	LEAQ (DI)(R9*2), R8
	LEAQ (R8)(R9*1), R9
	XORQ AX, AX             // byte offset of p

	VXORPS Y0, Y0, Y0       // VEX: clears the whole ZMM
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
	VMOVUPS         (DI)(AX*1), Y8
	VINSERTF64X4    $1, (R11)(AX*1), Z8, Z8     // w rows 0 | 1
	VMOVUPS         (R8)(AX*1), Y9
	VINSERTF64X4    $1, (R9)(AX*1), Z9, Z9      // w rows 2 | 3
	VBROADCASTF64X4 (SI)(AX*1), Z10
	VBROADCASTF64X4 (R12)(AX*1), Z11
	VFMADD231PS     Z8, Z10, Z0
	VFMADD231PS     Z9, Z10, Z1
	VFMADD231PS     Z8, Z11, Z2
	VFMADD231PS     Z9, Z11, Z3
	VBROADCASTF64X4 (R10)(AX*1), Z10
	VBROADCASTF64X4 (R13)(AX*1), Z11
	VFMADD231PS     Z8, Z10, Z4
	VFMADD231PS     Z9, Z10, Z5
	VFMADD231PS     Z8, Z11, Z6
	VFMADD231PS     Z9, Z11, Z7
	ADDQ            $32, AX
	DECQ            BX
	JNZ             vec

reduce:
// ZSUM is HSUM on both halves of Z at once, each add with the operands the
// way round HSUM has them: the sum of the low half's lanes ends up in
// element 0, of the high half's in element 8.
#define ZSUM(Z) \
	VSHUFF64X2 $0xb1, Z, Z, Z12; \
	VADDPS     Z12, Z, Z;        \
	VPERMILPS  $0xee, Z, Z12;    \
	VADDPS     Z12, Z, Z;        \
	VMOVSHDUP  Z, Z12;           \
	VADDPS     Z12, Z, Z
// ROW4 gathers row r's four sums, from ZA (w rows 0 | 1) and ZB (2 | 3),
// into XA in out's order.
#define ROW4(ZA, XA, ZB, XB) \
	ZSUM(ZA);                       \
	ZSUM(ZB);                       \
	VEXTRACTF32X4 $2, ZA, X12;      \
	VEXTRACTF32X4 $2, ZB, X13;      \
	VUNPCKLPS     X12, XA, XA;      \
	VUNPCKLPS     X13, XB, XB;      \
	VMOVLHPS      XB, XA, XA
	ROW4(Z0, X0, Z1, X1)
	ROW4(Z2, X2, Z3, X3)
	ROW4(Z4, X4, Z5, X5)
	ROW4(Z6, X6, Z7, X7)

	ANDQ $7, CX
	JZ   store

tail:
	VMOVSS       (DI)(AX*1), X8
	VINSERTPS    $0x10, (R11)(AX*1), X8, X8
	VINSERTPS    $0x20, (R8)(AX*1), X8, X8
	VINSERTPS    $0x30, (R9)(AX*1), X8, X8
	VBROADCASTSS (SI)(AX*1), X10
	VBROADCASTSS (R12)(AX*1), X11
	VFMADD231PS  X8, X10, X0
	VFMADD231PS  X8, X11, X2
	VBROADCASTSS (R10)(AX*1), X10
	VBROADCASTSS (R13)(AX*1), X11
	VFMADD231PS  X8, X10, X4
	VFMADD231PS  X8, X11, X6
	ADDQ         $4, AX
	DECQ         CX
	JNZ          tail

store:
	VMOVUPS X0, (DX)
	VMOVUPS X2, 16(DX)
	VMOVUPS X4, 32(DX)
	VMOVUPS X6, 48(DX)
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
