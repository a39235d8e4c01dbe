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
