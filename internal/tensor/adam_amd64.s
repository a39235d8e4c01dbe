//go:build amd64

#include "textflag.h"

DATA adamMinNormal<>+0(SB)/4, $0x00800000 // 2⁻¹²⁶
GLOBL adamMinNormal<>(SB), RODATA|NOPTR, $4
DATA adamAbsMask<>+0(SB)/4, $0x7fffffff
GLOBL adamAbsMask<>(SB), RODATA|NOPTR, $4

// func adamBlocksAVX2(values, grads, m, v []float32, blocks int, alpha, b1, omb1, b2, omb2, eps float32)
//
// adamRangeGo over blocks×8 elements, eight lanes per iteration, operation
// for operation: separate VMULPS/VADDPS (never an FMA), the flush as a
// not-less-than compare (predicate 0x15, true on NaN, so a NaN moment stays
// NaN as it does in Go) ANDed onto the moment, VSQRTPS and VDIVPS. The
// hyperparameters are broadcast straight from the argument frame, so the
// caller builds no constant block.
TEXT ·adamBlocksAVX2(SB), NOSPLIT, $0-128
	MOVQ values_base+0(FP), DI
	MOVQ grads_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ blocks+96(FP), CX
	VBROADCASTSS alpha+104(FP), Y8
	VBROADCASTSS b1+108(FP), Y9
	VBROADCASTSS omb1+112(FP), Y10
	VBROADCASTSS b2+116(FP), Y11
	VBROADCASTSS omb2+120(FP), Y12
	VBROADCASTSS eps+124(FP), Y13
	VBROADCASTSS adamMinNormal<>(SB), Y14
	VBROADCASTSS adamAbsMask<>(SB), Y15
	XORQ AX, AX

loop:
	VMOVUPS (SI)(AX*1), Y0      // g
	VMULPS  (R8)(AX*1), Y9, Y1  // b1·m
	VMULPS  Y0, Y10, Y3         // (1−b1)·g
	VADDPS  Y3, Y1, Y1          // m′
	VMULPS  (R9)(AX*1), Y11, Y2 // b2·v
	VMULPS  Y0, Y12, Y3         // (1−b2)·g
	VMULPS  Y0, Y3, Y3          // ((1−b2)·g)·g
	VADDPS  Y3, Y2, Y2          // v′
	VANDPS  Y15, Y1, Y3         // |m′|
	VCMPPS  $0x15, Y14, Y3, Y3  // !(|m′| < 2⁻¹²⁶)
	VANDPS  Y3, Y1, Y1
	VCMPPS  $0x15, Y14, Y2, Y3  // !(v′ < 2⁻¹²⁶)
	VANDPS  Y3, Y2, Y2
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y2, (R9)(AX*1)
	VSQRTPS Y2, Y2
	VADDPS  Y13, Y2, Y2         // √v′ + ε
	VMULPS  Y1, Y8, Y1          // α·m′
	VDIVPS  Y2, Y1, Y1
	VMOVUPS (DI)(AX*1), Y3
	VSUBPS  Y1, Y3, Y3          // w − (α·m′)/(√v′ + ε)
	VMOVUPS Y3, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET
