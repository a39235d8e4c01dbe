//go:build amd64

#include "textflag.h"

// The elementwise family of vec.go, eight float32 lanes per iteration. Every
// kernel runs the len/8 whole blocks of its first slice and leaves the tail
// to its portable twin (vec_amd64.go). Each arithmetic step is its own
// correctly rounded IEEE instruction, never an FMA and never a reciprocal,
// and operands keep the order of the Go expression, so the result is the
// portable loop's bit for bit.

// func addBlocksAVX2(dst, src []float32)
TEXT ·addBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

loop:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func addReLUBlocksAVX2(dst, src []float32)
//
// VMAXPS returns its second source, here +0, when the first is not greater:
// a NaN sum and −0 become +0 exactly as `if x > 0 … else 0` makes them.
TEXT ·addReLUBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	SHRQ   $3, CX
	JZ     done

loop:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func reluGradBiasBlocksAVX2(dz, dy, y, bgrad []float32)
//
// The mask is not-less-or-equal (predicate 0x16, true on NaN), so a NaN
// activation passes the gradient as `y <= 0` being false does in Go.
TEXT ·reluGradBiasBlocksAVX2(SB), NOSPLIT, $0-96
	MOVQ   dz_base+0(FP), DI
	MOVQ   dz_len+8(FP), CX
	MOVQ   dy_base+24(FP), SI
	MOVQ   y_base+48(FP), R8
	MOVQ   bgrad_base+72(FP), R9
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	SHRQ   $3, CX
	JZ     done

loop:
	VMOVUPS (R8)(AX*1), Y1
	VCMPPS  $0x16, Y15, Y1, Y1  // !(y <= 0)
	VANDPS  (SI)(AX*1), Y1, Y1  // g
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS (R9)(AX*1), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (R9)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func subScaleBlocksAVX2(dst, a, b []float32, s float32)
TEXT ·subScaleBlocksAVX2(SB), NOSPLIT, $0-76
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	VBROADCASTSS s+72(FP), Y1
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

loop:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  (R8)(AX*1), Y0, Y0
	VMULPS  Y0, Y1, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func sqDiffLanesAVX2(a, b []float32) (l [8]float64)
//
// Lanes 0–3 live in Y4, 4–7 in Y5; the difference, its square and the sum
// are each rounded to float64 on their own, as sqDiffLanesGo writes them.
TEXT ·sqDiffLanesAVX2(SB), NOSPLIT, $0-112
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   AX, AX
	SHRQ   $3, CX
	JZ     done

loop:
	VCVTPS2PD (SI)(AX*1), Y0
	VCVTPS2PD 16(SI)(AX*1), Y1
	VCVTPS2PD (DI)(AX*1), Y2
	VCVTPS2PD 16(DI)(AX*1), Y3
	VSUBPD    Y2, Y0, Y0
	VSUBPD    Y3, Y1, Y1
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VADDPD    Y0, Y4, Y4
	VADDPD    Y1, Y5, Y5
	ADDQ      $32, AX
	DECQ      CX
	JNZ       loop

done:
	LEAQ    l+48(FP), DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VZEROUPPER
	RET

// func affineNormBlocksAVX2(dst, src []float32, min, span float32)
TEXT ·affineNormBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS min+48(FP), Y1
	VBROADCASTSS span+52(FP), Y2
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

loop:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y1, Y0, Y0
	VDIVPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func f64ToF32BlocksAVX2(dst []float32, src []float64)
TEXT ·f64ToF32BlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ   done

loop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        loop

done:
	VZEROUPPER
	RET

// func putF32LEBlocksAVX2(dst []byte, src []float32)
//
// amd64 is little-endian: the wire layout is the memory layout, so encode
// and decode (below) are the same 32-byte copy loop.
TEXT ·putF32LEBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	JMP  copyBlocks<>(SB)

// func getF32LEBlocksAVX2(dst []float32, src []byte)
TEXT ·getF32LEBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	JMP  copyBlocks<>(SB)

// copyBlocks copies CX/8 blocks of 32 bytes from SI to DI.
TEXT copyBlocks<>(SB), NOSPLIT, $0-0
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

loop:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET
