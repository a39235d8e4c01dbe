//go:build amd64

#include "textflag.h"

DATA adamMinNormal<>+0(SB)/4, $0x00800000 // 2⁻¹²⁶
GLOBL adamMinNormal<>(SB), RODATA|NOPTR, $4
DATA adamAbsMask<>+0(SB)/4, $0x7fffffff
GLOBL adamAbsMask<>(SB), RODATA|NOPTR, $4

// func adamSumBlocksAVX2(values, m, v []float32, srcs, zero [][]float32, off, blocks int, scale, alpha, b1, omb1, b2, omb2, eps float32)
//
// adamSumRangeGo over elements [off, off+8·blocks), eight lanes per
// iteration, operation for operation: the sources added in order onto
// srcs[0], one product by scale, then the update with separate
// VMULPS/VADDPS (never an FMA), the flush as a not-less-than compare
// (predicate 0x15, true on NaN, so a NaN moment stays NaN as it does in Go)
// ANDed onto the moment, VSQRTPS and VDIVPS; last, zeros into every slab
// of zero. Every slab is indexed from its own base by the same offset. The
// hyperparameters are broadcast straight from the argument frame, so the
// caller builds no constant block.
TEXT ·adamSumBlocksAVX2(SB), NOSPLIT, $0-164
	MOVQ values_base+0(FP), DI
	MOVQ m_base+24(FP), R8
	MOVQ v_base+48(FP), R9
	MOVQ srcs_base+72(FP), R10
	MOVQ srcs_len+80(FP), R11
	MOVQ zero_base+96(FP), R12
	MOVQ zero_len+104(FP), R13
	MOVQ off+120(FP), AX
	SHLQ $2, AX
	MOVQ blocks+128(FP), CX
	VBROADCASTSS scale+136(FP), Y7
	VBROADCASTSS alpha+140(FP), Y8
	VBROADCASTSS b1+144(FP), Y9
	VBROADCASTSS omb1+148(FP), Y10
	VBROADCASTSS b2+152(FP), Y11
	VBROADCASTSS omb2+156(FP), Y12
	VBROADCASTSS eps+160(FP), Y13
	VBROADCASTSS adamMinNormal<>(SB), Y14
	VBROADCASTSS adamAbsMask<>(SB), Y15
	VXORPS       Y6, Y6, Y6

loop:
	MOVQ    (R10), SI
	VMOVUPS (SI)(AX*1), Y0 // srcs[0]
	LEAQ    24(R10), BX
	MOVQ    R11, DX
	DECQ    DX
	JZ      scaled

sum:
	MOVQ   (BX), SI
	VADDPS (SI)(AX*1), Y0, Y0 // … + srcs[i]
	ADDQ   $24, BX
	DECQ   DX
	JNZ    sum

scaled:
	VMULPS Y7, Y0, Y0           // g
	VMULPS (R8)(AX*1), Y9, Y1   // b1·m
	VMULPS Y0, Y10, Y3          // (1−b1)·g
	VADDPS Y3, Y1, Y1           // m′
	VMULPS (R9)(AX*1), Y11, Y2  // b2·v
	VMULPS Y0, Y12, Y3          // (1−b2)·g
	VMULPS Y0, Y3, Y3           // ((1−b2)·g)·g
	VADDPS Y3, Y2, Y2           // v′
	VANDPS Y15, Y1, Y3          // |m′|
	VCMPPS $0x15, Y14, Y3, Y3   // !(|m′| < 2⁻¹²⁶)
	VANDPS Y3, Y1, Y1
	VCMPPS $0x15, Y14, Y2, Y3   // !(v′ < 2⁻¹²⁶)
	VANDPS Y3, Y2, Y2
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y2, (R9)(AX*1)
	VSQRTPS Y2, Y2
	VADDPS  Y13, Y2, Y2         // √v′ + ε
	VMULPS  Y1, Y8, Y1          // α·m′
	VDIVPS  Y2, Y1, Y1
	VMOVUPS (DI)(AX*1), Y3
	VSUBPS  Y1, Y3, Y3          // w − (α·m′)/(√v′ + ε)
	VMOVUPS Y3, (DI)(AX*1)

	MOVQ  R12, BX
	MOVQ  R13, DX
	TESTQ DX, DX
	JZ    next

clear:
	MOVQ    (BX), SI
	VMOVUPS Y6, (SI)(AX*1)
	ADDQ    $24, BX
	DECQ    DX
	JNZ     clear

next:
	ADDQ $32, AX
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET

// ADAM_FACTOR is the update of adamSumBlocksAVX2 on one 8-lane block whose
// gradient is in the frame at GOFF, the block OFF bytes past AX in the
// values (DI), m (R8) and v (R9) rows: the same operations on the same
// operands (the moments in the other order, which nothing observes), with
// the hyperparameters in Y7–Y15 and Y0–Y2 free.
#define ADAM_FACTOR(GOFF, OFF) \
	VMULPS  GOFF(SP), Y7, Y0       \ // g·scale
	VMULPS  OFF(R9)(AX*1), Y11, Y1 \ // b2·v
	VMULPS  Y0, Y12, Y2            \ // (1−b2)·g
	VMULPS  Y0, Y2, Y2             \ // ((1−b2)·g)·g
	VADDPS  Y2, Y1, Y1             \ // v′
	VMULPS  OFF(R8)(AX*1), Y9, Y2  \ // b1·m
	VMULPS  Y0, Y10, Y0            \ // (1−b1)·g
	VADDPS  Y0, Y2, Y2             \ // m′
	VANDPS  Y15, Y2, Y0            \ // |m′|
	VCMPPS  $0x15, Y14, Y0, Y0     \ // !(|m′| < 2⁻¹²⁶)
	VANDPS  Y0, Y2, Y2             \
	VCMPPS  $0x15, Y14, Y1, Y0     \ // !(v′ < 2⁻¹²⁶)
	VANDPS  Y0, Y1, Y1             \
	VMOVUPS Y2, OFF(R8)(AX*1)      \
	VMOVUPS Y1, OFF(R9)(AX*1)      \
	VSQRTPS Y1, Y1                 \
	VADDPS  Y13, Y1, Y1            \ // √v′ + ε
	VMULPS  Y2, Y8, Y2             \ // α·m′
	VDIVPS  Y1, Y2, Y2             \
	VMOVUPS OFF(DI)(AX*1), Y0      \
	VSUBPS  Y2, Y0, Y0             \ // w − (α·m′)/(√v′ + ε)
	VMOVUPS Y0, OFF(DI)(AX*1)

// func adamFactorAVX2(values, m, v []float32, srcs []factorSrc, rows, blocks, ldx, ldz, ldw int, scale, alpha, b1, omb1, b2, omb2, eps float32)
//
// adamFactorRangeGo over rows×(8·blocks) elements of a weight whose rows
// are ldw bytes apart (values, m and v start at the first), 64 columns at a
// time and then 8: first the columns' gradient, into the frame, then their
// update from it.
//
// The gradient is the sum over srcs of each source's element of Xᵀ·DZ as
// MatMulATBAdd forms it into a zero slab. Per source: per slab of up to 256
// batch rows (the GEMM's blockK) acc = +0 and one VFMADD231PS chain over
// the slab's rows ascending — X[p, i] broadcast, DZ[p, j…j+7] — then c =
// acc after the first slab, c += acc after each later one (c kept in the
// frame between slabs); g = c for the first source, g += c for each later
// one. The GEMM adds the first chain onto the slab's +0, which leaves it
// as it is: a chain from +0 never ends at −0 (a −0 product added to +0
// gives +0) nor at a signaling NaN. X's rows are ldx bytes apart, DZ's
// copy's ldz. The eight chains of a group run side by side in Y0–Y7 beside
// the broadcast in Y8, so a group reloads scale, α and β1 before its
// updates.
//
// Frame: g at 0 and c at 256 (a group's 64 floats each), then the rows
// left, the row's byte offset into X, the end of srcs.
TEXT ·adamFactorAVX2(SB), NOSPLIT, $536-164
	MOVQ  values_base+0(FP), DI
	MOVQ  m_base+24(FP), R8
	MOVQ  v_base+48(FP), R9
	MOVQ  srcs_base+72(FP), R10
	MOVQ  srcs_len+80(FP), AX
	IMULQ $24, AX
	ADDQ  R10, AX
	MOVQ  AX, 528(SP)
	MOVQ  rows+96(FP), AX
	MOVQ  AX, 512(SP)
	MOVQ  $0, 520(SP)
	MOVQ  ldx+112(FP), R13
	MOVQ  ldz+120(FP), R14
	VBROADCASTSS omb1+148(FP), Y10
	VBROADCASTSS b2+152(FP), Y11
	VBROADCASTSS omb2+156(FP), Y12
	VBROADCASTSS eps+160(FP), Y13
	VBROADCASTSS adamMinNormal<>(SB), Y14
	VBROADCASTSS adamAbsMask<>(SB), Y15

row:
	XORQ AX, AX // the columns' byte offset in the row
	MOVQ blocks+104(FP), CX
	SHRQ $3, CX
	JZ   blocks

group:
	MOVQ R10, BX

gsrc:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   16(BX), R11  // batch rows left
	TESTQ  R11, R11
	JZ     gsum         // no rows: c = +0
	MOVQ   0(BX), SI
	ADDQ   520(SP), SI  // &X[0, i]
	MOVQ   8(BX), R12
	ADDQ   AX, R12      // &DZ[0, j]
	JMP    gslab

gnext:
	VMOVUPS Y0, 256(SP) // c, kept between slabs
	VMOVUPS Y1, 288(SP)
	VMOVUPS Y2, 320(SP)
	VMOVUPS Y3, 352(SP)
	VMOVUPS Y4, 384(SP)
	VMOVUPS Y5, 416(SP)
	VMOVUPS Y6, 448(SP)
	VMOVUPS Y7, 480(SP)
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7

gslab:
	MOVQ    $256, DX // this slab's rows
	CMPQ    R11, DX
	CMOVQLT R11, DX
	SUBQ    DX, R11

gchain:
	VBROADCASTSS (SI), Y8
	VFMADD231PS  (R12), Y8, Y0 // acc += X[p, i]·DZ[p, j…j+63]
	VFMADD231PS  32(R12), Y8, Y1
	VFMADD231PS  64(R12), Y8, Y2
	VFMADD231PS  96(R12), Y8, Y3
	VFMADD231PS  128(R12), Y8, Y4
	VFMADD231PS  160(R12), Y8, Y5
	VFMADD231PS  192(R12), Y8, Y6
	VFMADD231PS  224(R12), Y8, Y7
	ADDQ         R13, SI
	ADDQ         R14, R12
	DECQ         DX
	JNZ          gchain
	MOVQ         16(BX), DX
	SUBQ         R11, DX
	CMPQ         DX, $256
	JLE          gslabbed // the first slab: c = acc

	VADDPS 256(SP), Y0, Y0 // c += acc
	VADDPS 288(SP), Y1, Y1
	VADDPS 320(SP), Y2, Y2
	VADDPS 352(SP), Y3, Y3
	VADDPS 384(SP), Y4, Y4
	VADDPS 416(SP), Y5, Y5
	VADDPS 448(SP), Y6, Y6
	VADDPS 480(SP), Y7, Y7

gslabbed:
	TESTQ R11, R11
	JNZ   gnext

gsum:
	CMPQ BX, R10
	JEQ  gfirst
	VADDPS 0(SP), Y0, Y0 // g += c
	VADDPS 32(SP), Y1, Y1
	VADDPS 64(SP), Y2, Y2
	VADDPS 96(SP), Y3, Y3
	VADDPS 128(SP), Y4, Y4
	VADDPS 160(SP), Y5, Y5
	VADDPS 192(SP), Y6, Y6
	VADDPS 224(SP), Y7, Y7

gfirst:
	VMOVUPS Y0, 0(SP)
	VMOVUPS Y1, 32(SP)
	VMOVUPS Y2, 64(SP)
	VMOVUPS Y3, 96(SP)
	VMOVUPS Y4, 128(SP)
	VMOVUPS Y5, 160(SP)
	VMOVUPS Y6, 192(SP)
	VMOVUPS Y7, 224(SP)
	ADDQ    $24, BX
	CMPQ    BX, 528(SP)
	JNE     gsrc

	VBROADCASTSS scale+136(FP), Y7
	VBROADCASTSS alpha+140(FP), Y8
	VBROADCASTSS b1+144(FP), Y9
	ADAM_FACTOR(0, 0)
	ADAM_FACTOR(32, 32)
	ADAM_FACTOR(64, 64)
	ADAM_FACTOR(96, 96)
	ADAM_FACTOR(128, 128)
	ADAM_FACTOR(160, 160)
	ADAM_FACTOR(192, 192)
	ADAM_FACTOR(224, 224)
	ADDQ $256, AX
	DECQ CX
	JNZ  group

blocks:
	MOVQ blocks+104(FP), CX
	ANDQ $7, CX
	JZ   nextrow

block:
	MOVQ R10, BX

src:
	VXORPS Y0, Y0, Y0
	MOVQ   16(BX), R11
	TESTQ  R11, R11
	JZ     sum
	MOVQ   0(BX), SI
	ADDQ   520(SP), SI
	MOVQ   8(BX), R12
	ADDQ   AX, R12
	JMP    slab

next:
	VMOVUPS Y0, 256(SP)
	VXORPS  Y0, Y0, Y0

slab:
	MOVQ    $256, DX
	CMPQ    R11, DX
	CMOVQLT R11, DX
	SUBQ    DX, R11

chain:
	VBROADCASTSS (SI), Y8
	VFMADD231PS  (R12), Y8, Y0
	ADDQ         R13, SI
	ADDQ         R14, R12
	DECQ         DX
	JNZ          chain
	MOVQ         16(BX), DX
	SUBQ         R11, DX
	CMPQ         DX, $256
	JLE          slabbed

	VADDPS 256(SP), Y0, Y0

slabbed:
	TESTQ R11, R11
	JNZ   next

sum:
	CMPQ   BX, R10
	JEQ    first
	VADDPS 0(SP), Y0, Y0

first:
	VMOVUPS Y0, 0(SP)
	ADDQ    $24, BX
	CMPQ    BX, 528(SP)
	JNE     src

	VBROADCASTSS scale+136(FP), Y7
	VBROADCASTSS alpha+140(FP), Y8
	VBROADCASTSS b1+144(FP), Y9
	ADAM_FACTOR(0, 0)
	ADDQ $32, AX
	DECQ CX
	JNZ  block

nextrow:
	MOVQ ldw+128(FP), DX
	ADDQ DX, DI
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ $4, 520(SP)
	DECQ 512(SP)
	JNZ  row

	VZEROUPPER
	RET
