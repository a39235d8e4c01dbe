//go:build amd64

#include "textflag.h"

// The per-element loops of a CG iteration (cg.go), four float64 lanes per
// YMM block and the remainder one element at a time, in the same function.
// Each product, difference and sum is its own correctly rounded IEEE
// instruction (VMULPD/VMULSD, VSUBPD/VSUBSD, VADDPD/VADDSD), never an FMA,
// and a stencil element subtracts its terms in stencilRowGo's order. A dot
// product is vector only up to its products: their four lanes are then
// added one by one, in index order, to one scalar accumulator, so every sum
// is the Go loop's serial chain. The wrappers in cg_amd64.go check every
// length; an elementwise kernel reads and writes len(first slice) elements
// of each operand.
//
// The stencils keep r broadcast in Y15, the diagonal 1+4r in Y14 and β in
// Y13; SI is the row of p, DI the row of A·p, R8 and R9 the rows above and
// below, present when R10 and R11 are non-zero (zero: a physical edge, the
// term left out). CX is n, BX = n−1 the last column, AX the column, and DX
// the end of the interior's whole blocks, 1 + (n−2)&^3. A dot sums in X7.

// SUM4 adds the four lanes of v (its low half is x) to acc, lane 0 first.
#define SUM4(v, x, acc) \
	VADDSD       x, acc, acc; \
	VPERMILPD    $1, x, X3; \
	VADDSD       X3, acc, acc; \
	VEXTRACTF128 $1, v, X4; \
	VADDSD       X4, acc, acc; \
	VPERMILPD    $1, X4, X5; \
	VADDSD       X5, acc, acc

// DOT1 and DOTV add row·out of the column in X0/X1, or the four in Y0/Y1,
// to X7; NODOT stands in for either in a stencil without a dot.
#define DOT1 \
	VMULSD X1, X0, X2; \
	VADDSD X2, X7, X7

#define DOTV \
	VMULPD Y1, Y0, Y2; \
	SUM4(Y2, X2, X7)

#define NODOT

// OWN1 leaves in X1 an interior column's own terms, diag·row[AX] −
// r·row[AX−1] − r·row[AX+1], with row[AX] in X0; VOWN the same in Y1 and Y0
// for the four columns from AX.
#define OWN1 \
	VMOVSD (SI)(AX*8), X0; \
	VMULSD X0, X14, X1; \
	VMULSD -8(SI)(AX*8), X15, X2; \
	VSUBSD X2, X1, X1; \
	VMULSD 8(SI)(AX*8), X15, X2; \
	VSUBSD X2, X1, X1

#define VOWN \
	VMOVUPD (SI)(AX*8), Y0; \
	VMULPD  Y0, Y14, Y1; \
	VMULPD  -8(SI)(AX*8), Y15, Y2; \
	VSUBPD  Y2, Y1, Y1; \
	VMULPD  8(SI)(AX*8), Y15, Y2; \
	VSUBPD  Y2, Y1, Y1

// SNB subtracts r·nb[AX] from X1 when the neighbour row nb is present; VNB
// r·nb[AX:AX+4] from Y1.
#define SNB(nb, present, skip) \
	TESTQ  present, present; \
	JZ     skip; \
	VMULSD (nb)(AX*8), X15, X2; \
	VSUBSD X2, X1, X1; \
skip:

#define VNB(nb, present, skip) \
	TESTQ  present, present; \
	JZ     skip; \
	VMULPD (nb)(AX*8), Y15, Y2; \
	VSUBPD Y2, Y1, Y1; \
skip:

// BLOCK_END sets DX to the end of the row's whole interior blocks.
#define BLOCK_END \
	MOVQ CX, DX; \
	SUBQ $2, DX; \
	ANDQ $-4, DX; \
	INCQ DX

// ROW writes one row of A·p with any neighbours present, and adds row·out
// to X7 through dot1 and dotv (or NODOT). It expands once per function:
// its labels are the function's.
#define ROW(dot1, dotv) \
	XORQ   AX, AX; \
	VMOVSD (SI), X0; \
	VMULSD X0, X14, X1; \
	TESTQ  BX, BX; \
	JZ     col0; \
	VMULSD 8(SI), X15, X2; \
	VSUBSD X2, X1, X1; \
col0: \
	SNB(R8, R10, col0up); \
	SNB(R9, R11, col0dn); \
	VMOVSD X1, (DI); \
	dot1; \
	TESTQ  BX, BX; \
	JZ     rowdone; \
	MOVQ   $1, AX; \
	CMPQ   AX, DX; \
	JGE    tail; \
block: \
	VOWN; \
	VNB(R8, R10, blockup); \
	VNB(R9, R11, blockdn); \
	VMOVUPD Y1, (DI)(AX*8); \
	dotv; \
	ADDQ    $4, AX; \
	CMPQ    AX, DX; \
	JLT     block; \
tail: \
	CMPQ AX, BX; \
	JGE  last; \
	OWN1; \
	SNB(R8, R10, tailup); \
	SNB(R9, R11, taildn); \
	VMOVSD X1, (DI)(AX*8); \
	dot1; \
	INCQ   AX; \
	JMP    tail; \
last: \
	VMOVSD (SI)(AX*8), X0; \
	VMULSD X0, X14, X1; \
	VMULSD -8(SI)(AX*8), X15, X2; \
	VSUBSD X2, X1, X1; \
	SNB(R8, R10, lastup); \
	SNB(R9, R11, lastdn); \
	VMOVSD X1, (DI)(AX*8); \
	dot1; \
rowdone:

// func stencilRowKern(out, row, up, dn []float64, r, diag float64)
//
// One row of A·p, n = len(row) ≥ 1; a neighbour of length 0 is absent.
TEXT ·stencilRowKern(SB), NOSPLIT, $0-112
	MOVQ         out_base+0(FP), DI
	MOVQ         row_base+24(FP), SI
	MOVQ         row_len+32(FP), CX
	MOVQ         up_base+48(FP), R8
	MOVQ         up_len+56(FP), R10
	MOVQ         dn_base+72(FP), R9
	MOVQ         dn_len+80(FP), R11
	VBROADCASTSD r+96(FP), Y15
	VBROADCASTSD diag+104(FP), Y14
	MOVQ         CX, BX
	DECQ         BX
	BLOCK_END
	ROW(NODOT, NODOT)
	VZEROUPPER
	RET

// UPDATE sets pp[j] = rr[j] + β·pp[j] for j < CX, through AX and DX; blk,
// tl and dn name its labels.
#define UPDATE(pp, rr, blk, tl, dn) \
	MOVQ CX, DX; \
	ANDQ $-4, DX; \
	XORQ AX, AX; \
	CMPQ AX, DX; \
	JGE  tl; \
blk: \
	VMULPD  (pp)(AX*8), Y13, Y0; \
	VADDPD  (rr)(AX*8), Y0, Y0; \
	VMOVUPD Y0, (pp)(AX*8); \
	ADDQ    $4, AX; \
	CMPQ    AX, DX; \
	JLT     blk; \
tl: \
	CMPQ   AX, CX; \
	JGE    dn; \
	VMULSD (pp)(AX*8), X13, X0; \
	VADDSD (rr)(AX*8), X0, X0; \
	VMOVSD X0, (pp)(AX*8); \
	INCQ   AX; \
	JMP    tl; \
dn:

// UPD1 updates the row below at column AX (res row R14) and leaves the new
// value in X3; VUPD the four from AX, in Y3.
#define UPD1 \
	VMULSD (R9)(AX*8), X13, X3; \
	VADDSD (R14)(AX*8), X3, X3; \
	VMOVSD X3, (R9)(AX*8)

#define VUPD \
	VMULPD  (R9)(AX*8), Y13, Y3; \
	VADDPD  (R14)(AX*8), Y3, Y3; \
	VMOVUPD Y3, (R9)(AX*8)

// NBS1 subtracts r·up[AX] and then r·X3 from X1; VNBS the same with Y3
// for four columns.
#define NBS1 \
	VMULSD (R8)(AX*8), X15, X2; \
	VSUBSD X2, X1, X1; \
	VMULSD X3, X15, X2; \
	VSUBSD X2, X1, X1

#define VNBS \
	VMULPD (R8)(AX*8), Y15, Y2; \
	VSUBPD Y2, Y1, Y1; \
	VMULPD Y3, Y15, Y2; \
	VSUBPD Y2, Y1, Y1

// func searchKern(ap, p, res []float64, n int, r, diag, beta float64, update bool) float64
//
// Pass 1 on the one-strip engine, searchGo's result: with update, row 0 of
// p and, before row i < n−1 is evaluated, row i+1 become res + β·p; row i of
// ap is the stencil's, and row·ap is summed in index order. A row with both
// neighbours, under update, brings each column of the row below up to date
// just before its stencil reads it, in the same loop (nothing else in the
// row reads that column); the edge rows and an iteration without update go
// through ROW. R12 is the row i, R13 the row stride in bytes and R14 row i+1
// of res.
TEXT ·searchKern(SB), NOSPLIT, $0-120
	MOVQ         ap_base+0(FP), DI
	MOVQ         p_base+24(FP), SI
	MOVQ         res_base+48(FP), R14
	MOVQ         n+72(FP), CX
	VBROADCASTSD r+80(FP), Y15
	VBROADCASTSD diag+88(FP), Y14
	VBROADCASTSD beta+96(FP), Y13
	VXORPD       X7, X7, X7
	MOVQ         CX, BX
	DECQ         BX
	MOVQ         CX, R13
	SHLQ         $3, R13
	XORQ         R12, R12
	CMPB         update+104(FP), $0
	JEQ          nextrow
	UPDATE(SI, R14, u0block, u0tail, nextrow)

	// R8 and R9 point outside p at the edge rows, where R10 or R11 is 0
	// and they are never read.
	MOVQ  SI, R8
	SUBQ  R13, R8
	MOVQ  SI, R9
	ADDQ  R13, R9
	MOVQ  R12, R10
	MOVQ  BX, R11
	SUBQ  R12, R11
	JZ    generic
	ADDQ  R13, R14
	CMPB  update+104(FP), $0
	JEQ   generic
	TESTQ R10, R10
	JNZ   interior
	UPDATE(R9, R14, udblock, udtail, generic)
	BLOCK_END
	ROW(DOT1, DOTV)
	JMP next

interior:
	// Both neighbours, update: column 0, the blocks, the tail, column n−1.
	BLOCK_END
	XORQ   AX, AX
	UPD1
	VMOVSD (SI), X0
	VMULSD X0, X14, X1
	VMULSD 8(SI), X15, X2
	VSUBSD X2, X1, X1
	NBS1
	VMOVSD X1, (DI)
	DOT1
	MOVQ   $1, AX
	CMPQ   AX, DX
	JGE    itail

iblock:
	VUPD
	VOWN
	VNBS
	VMOVUPD Y1, (DI)(AX*8)
	DOTV
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     iblock

itail:
	CMPQ AX, BX
	JGE  ilast
	UPD1
	OWN1
	NBS1
	VMOVSD X1, (DI)(AX*8)
	DOT1
	INCQ   AX
	JMP    itail

ilast:
	UPD1
	VMOVSD (SI)(AX*8), X0
	VMULSD X0, X14, X1
	VMULSD -8(SI)(AX*8), X15, X2
	VSUBSD X2, X1, X1
	NBS1
	VMOVSD X1, (DI)(AX*8)
	DOT1

next:
	ADDQ R13, SI
	ADDQ R13, DI
	INCQ R12
	CMPQ R12, CX
	JLT  nextrow
	VMOVSD X7, ret+112(FP)
	VZEROUPPER
	RET

// func updateDirectionKern(p, res []float64, beta float64)
TEXT ·updateDirectionKern(SB), NOSPLIT, $0-56
	MOVQ         p_base+0(FP), DI
	MOVQ         p_len+8(FP), CX
	MOVQ         res_base+24(FP), SI
	VBROADCASTSD beta+48(FP), Y13
	UPDATE(DI, SI, block, tail, done)
	VZEROUPPER
	RET

// func dotAccKern(a, b []float64, acc float64) float64
//
// acc + Σ a[i]·b[i], added in index order.
TEXT ·dotAccKern(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VMOVSD acc+48(FP), X7
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    tail

block:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DI)(AX*8), Y0, Y2
	SUM4(Y2, X2, X7)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     block

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X0
	VMULSD (DI)(AX*8), X0, X2
	VADDSD X2, X7, X7
	INCQ   AX
	JMP    tail

done:
	VMOVSD X7, ret+56(FP)
	VZEROUPPER
	RET

// func cgStepKern(x, res, p, ap []float64, alpha float64) (rr float64)
//
// Pass 2: x[i] += α·p[i]; r = res[i] − α·ap[i]; res[i] = r; rr += r·r.
TEXT ·cgStepKern(SB), NOSPLIT, $0-112
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         res_base+24(FP), SI
	MOVQ         p_base+48(FP), R8
	MOVQ         ap_base+72(FP), R9
	VBROADCASTSD alpha+96(FP), Y15
	VXORPD       X7, X7, X7
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          tail

block:
	VMULPD  (R8)(AX*8), Y15, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMULPD  (R9)(AX*8), Y15, Y0
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	VMULPD  Y1, Y1, Y2
	SUM4(Y2, X2, X7)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     block

tail:
	CMPQ   AX, CX
	JGE    done
	VMULSD (R8)(AX*8), X15, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	VMULSD (R9)(AX*8), X15, X0
	VMOVSD (SI)(AX*8), X1
	VSUBSD X0, X1, X1
	VMOVSD X1, (SI)(AX*8)
	VMULSD X1, X1, X2
	VADDSD X2, X7, X7
	INCQ   AX
	JMP    tail

done:
	VMOVSD X7, rr+104(FP)
	VZEROUPPER
	RET

// func residualKern(res, p, rhs, ap []float64) (rr, bb float64)
//
// The initial residual: r = rhs[i] − ap[i]; res[i] = p[i] = r; rr += r·r
// (X7); bb += rhs[i]·rhs[i] (X6). The two sums are separate chains.
TEXT ·residualKern(SB), NOSPLIT, $0-112
	MOVQ   res_base+0(FP), DI
	MOVQ   res_len+8(FP), CX
	MOVQ   p_base+24(FP), R8
	MOVQ   rhs_base+48(FP), SI
	MOVQ   ap_base+72(FP), R9
	VXORPD X7, X7, X7
	VXORPD X6, X6, X6
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    tail

block:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (R9)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  Y1, Y1, Y2
	SUM4(Y2, X2, X7)
	VMULPD  Y0, Y0, Y2
	SUM4(Y2, X2, X6)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     block

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X0
	VSUBSD (R9)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	VMOVSD X1, (R8)(AX*8)
	VMULSD X1, X1, X2
	VADDSD X2, X7, X7
	VMULSD X0, X0, X2
	VADDSD X2, X6, X6
	INCQ   AX
	JMP    tail

done:
	VMOVSD X7, rr+96(FP)
	VMOVSD X6, bb+104(FP)
	VZEROUPPER
	RET
