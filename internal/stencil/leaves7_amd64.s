#include "textflag.h"

// AVX2 form of the 3D (7-point) dot row leaf, applyDotRow. As in
// leaves_amd64.s, every cell goes through the Go leaf's expression with
// the same operations in the same association — packed VADDPD/VSUBPD/
// VMULPD in place of the scalar ones, never an FMA — so each lane
// computes the bits the Go leaf computes for that cell. applyDotRow's δ is
// one sequential accumulator: a group of four cells computes its four c·v
// products in one register and adds them to δ one at a time, in cell
// order. See DESIGN.md, "AVX2 row leaves".
//
// The ten stencil rows live in these registers:
//
//	SI  kx, the x faces of n+1 (west kx[i], east kx[i+1])
//	DI  ks, R8 kn    south/north y faces
//	R9  kb, R10 kf   back/front z faces
//	R11 p, the values extended one cell each side (west p[i], centre
//	    p[i+1], east p[i+2])
//	R12 ps, R13 pn   south/north values
//	R14 pb, R15 pf   back/front values
//
// AX is the cell index. Y15 holds 1.0 in every lane.

// LOAD_ONES sets every lane of Y15 to 1.0 (clobbers R13, so it runs
// before the rows are loaded).
#define LOAD_ONES \
	MOVQ         $0x3FF0000000000000, R13; \
	VMOVQ        R13, X15;                 \
	VBROADCASTSD X15, Y15

// STENCIL7 evaluates point7 for the cells from index AX, associated as Go
// evaluates it:
//
//	T = (((1 + (ke+kw)) + (kn+ks)) + (kf+kb))·c − (ke·pe + kw·pw)
//	    − (kn·pn + ks·ps) − (kf·pf + kb·pb)
//
// LD is the move for the group width (VMOVUPD for 4 cells, VMOVSD for
// one) and ADD, SUB, MUL the matching arithmetic; KE–KB are scratch
// and ONE holds 1.0. Leaves T and the centre value c in U.
#define STENCIL7(LD, ADD, SUB, MUL, KE, KW, KN, KS, KF, KB, T, U, ONE) \
	LD  8(SI)(AX*8), KE;       \
	LD  (SI)(AX*8), KW;        \
	LD  (R8)(AX*8), KN;        \
	LD  (DI)(AX*8), KS;        \
	LD  (R10)(AX*8), KF;       \
	LD  (R9)(AX*8), KB;        \
	ADD KW, KE, T;             \
	ADD T, ONE, T;             \
	ADD KS, KN, U;             \
	ADD U, T, T;               \
	ADD KB, KF, U;             \
	ADD U, T, T;               \
	LD  8(R11)(AX*8), U;       \
	MUL U, T, T;               \
	MUL 16(R11)(AX*8), KE, KE; \
	MUL (R11)(AX*8), KW, KW;   \
	ADD KW, KE, KE;            \
	SUB KE, T, T;              \
	MUL (R13)(AX*8), KN, KN;   \
	MUL (R12)(AX*8), KS, KS;   \
	ADD KS, KN, KN;            \
	SUB KN, T, T;              \
	MUL (R15)(AX*8), KF, KF;   \
	MUL (R14)(AX*8), KB, KB;   \
	ADD KB, KF, KF;            \
	SUB KF, T, T

#define STENCIL7_4 \
	STENCIL7(VMOVUPD, VADDPD, VSUBPD, VMULPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y15)

#define STENCIL7_1 \
	STENCIL7(VMOVSD, VADDSD, VSUBSD, VMULSD, X0, X1, X2, X3, X4, X5, X6, X7, X15)

// func applyDotRowAVX2(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64
//
// δ lives in lane 0 of X8. A group of four cells forms its products c·v
// in Y10 and adds lanes 0, 1, 2, 3 to δ in that order; the cells past the
// last full group add one at a time.
TEXT ·applyDotRowAVX2(SB), NOSPLIT, $0-280
	LOAD_ONES
	MOVQ   kx_base+0(FP), SI
	MOVQ   ks_base+24(FP), DI
	MOVQ   kn_base+48(FP), R8
	MOVQ   kb_base+72(FP), R9
	MOVQ   kf_base+96(FP), R10
	MOVQ   p_base+120(FP), R11
	MOVQ   ps_base+144(FP), R12
	MOVQ   pn_base+168(FP), R13
	MOVQ   pb_base+192(FP), R14
	MOVQ   pf_base+216(FP), R15
	MOVQ   ws_base+240(FP), BX
	MOVQ   ws_len+248(FP), CX
	VMOVSD dot+264(FP), X8
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JMP    check4

loop4:
	STENCIL7_4
	VMOVUPD      Y6, (BX)(AX*8)
	VMULPD       Y6, Y7, Y10
	VADDSD       X10, X8, X8
	VPERMILPD    $1, X10, X11
	VADDSD       X11, X8, X8
	VEXTRACTF128 $1, Y10, X10
	VADDSD       X10, X8, X8
	VPERMILPD    $1, X10, X11
	VADDSD       X11, X8, X8
	ADDQ         $4, AX

check4:
	CMPQ AX, DX
	JLT  loop4
	JMP  check1

loop1:
	STENCIL7_1
	VMOVSD X6, (BX)(AX*8)
	VMULSD X6, X7, X10
	VADDSD X10, X8, X8
	INCQ   AX

check1:
	CMPQ   AX, CX
	JLT    loop1
	VMOVSD X8, ret+272(FP)
	VZEROUPPER
	RET
