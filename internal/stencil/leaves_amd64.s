#include "textflag.h"

// AVX2 forms of the 2D row leaves. Every cell goes through the Go leaf's
// expression with the same operations in the same association — packed
// VADDPD/VSUBPD/VMULPD in place of the scalar ones, never an FMA — so
// each lane computes the bits the Go leaf computes for that cell. The dot
// lanes map onto vector lanes as the Go leaves assign cells to their
// accumulators: four lanes are one ymm register, two lanes are one xmm
// register to which a group of four cells adds its low then its high
// half. See DESIGN.md, "AVX2 row leaves".

// LOAD_ONES sets every lane of Y15 to 1.0 (clobbers R13).
#define LOAD_ONES \
	MOVQ         $0x3FF0000000000000, R13; \
	VMOVQ        R13, X15;                 \
	VBROADCASTSD X15, Y15

// STENCIL evaluates Listing 1's expression for the cells from index AX,
// as the Go leaves spell it:
//
//	T = (1 + (kn+ks) + (ke+kw))·c − (kn·pn + ks·ps) − (ke·pe + kw·pw)
//
// The x faces are at KX (west KX[j], east KX[j+1]), the values at P
// extended one cell each side (west P[j], centre P[j+1], east P[j+2]),
// the north/south faces at KN/KS and values at PN/PS. LD is the move for
// the group width (VMOVUPD for 4 or 2 cells, VMOVSD for one) and ADD,
// SUB, MUL the matching arithmetic; XA–XD are scratch, ONE holds 1.0.
// Leaves T and the centre value in U.
#define STENCIL(LD, ADD, SUB, MUL, KX, KN, KS, P, PN, PS, XA, XB, XC, XD, T, U, ONE) \
	LD  (KN)(AX*8), XA;     \
	LD  (KS)(AX*8), XB;     \
	LD  8(KX)(AX*8), XC;    \
	LD  (KX)(AX*8), XD;     \
	ADD XB, XA, T;          \
	ADD XD, XC, U;          \
	ADD T, ONE, T;          \
	ADD U, T, T;            \
	LD  8(P)(AX*8), U;      \
	MUL U, T, T;            \
	MUL (PN)(AX*8), XA, XA; \
	MUL (PS)(AX*8), XB, XB; \
	ADD XB, XA, XA;         \
	SUB XA, T, T;           \
	MUL 16(P)(AX*8), XC, XC; \
	MUL (P)(AX*8), XD, XD;  \
	ADD XD, XC, XC;         \
	SUB XC, T, T

#define STENCIL4(KX, KN, KS, P, PN, PS) \
	STENCIL(VMOVUPD, VADDPD, VSUBPD, VMULPD, KX, KN, KS, P, PN, PS, Y0, Y1, Y2, Y3, Y4, Y5, Y15)

#define STENCIL2(KX, KN, KS, P, PN, PS) \
	STENCIL(VMOVUPD, VADDPD, VSUBPD, VMULPD, KX, KN, KS, P, PN, PS, X0, X1, X2, X3, X4, X5, X15)

#define STENCIL1(KX, KN, KS, P, PN, PS) \
	STENCIL(VMOVSD, VADDSD, VSUBSD, VMULSD, KX, KN, KS, P, PN, PS, X0, X1, X2, X3, X4, X5, X15)

// func applyDotRow5AVX2(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64)
//
// Lanes pw[0..3] live in Y8: each group of four cells adds c·v lane-wise;
// the cells past the last full group add into lane 0 one at a time.
TEXT ·applyDotRow5AVX2(SB), NOSPLIT, $0-176
	MOVQ kxs_base+0(FP), SI
	MOVQ kyn_base+24(FP), DI
	MOVQ kys_base+48(FP), R8
	MOVQ pn_base+72(FP), R9
	MOVQ pso_base+96(FP), R10
	MOVQ pc_base+120(FP), R11
	MOVQ ws_base+144(FP), R12
	MOVQ ws_len+152(FP), CX
	MOVQ pw+168(FP), DX
	LOAD_ONES
	VMOVUPD (DX), Y8
	XORQ    AX, AX
	MOVQ    CX, BX
	ANDQ    $-4, BX
	JMP     check4

loop4:
	STENCIL4(SI, DI, R8, R11, R9, R10)
	VMOVUPD Y4, (R12)(AX*8)
	VMULPD  Y4, Y5, Y6
	VADDPD  Y6, Y8, Y8
	ADDQ    $4, AX

check4:
	CMPQ    AX, BX
	JLT     loop4
	VMOVUPD Y8, (DX)
	JMP     check1

loop1:
	STENCIL1(SI, DI, R8, R11, R9, R10)
	VMOVSD X4, (R12)(AX*8)
	VMULSD X4, X5, X6
	VADDSD X6, X8, X8
	INCQ   AX

check1:
	CMPQ   AX, CX
	JLT    loop1
	VMOVSD X8, (DX)
	VZEROUPPER
	RET

// func applyPreDotRow5AVX2(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64)
//
// Lanes uw[0..1] live in X8: a group of four cells adds its low half
// (cells j, j+1) and then its high half (j+2, j+3), as the Go leaf's
// pairs do; a last pair adds once, and an odd row's last cell adds into
// lane 0.
TEXT ·applyPreDotRow5AVX2(SB), NOSPLIT, $0-176
	MOVQ kxs_base+0(FP), SI
	MOVQ kyn_base+24(FP), DI
	MOVQ kys_base+48(FP), R8
	MOVQ un_base+72(FP), R9
	MOVQ us_base+96(FP), R10
	MOVQ uc_base+120(FP), R11
	MOVQ ws_base+144(FP), R12
	MOVQ ws_len+152(FP), CX
	MOVQ uw+168(FP), DX
	LOAD_ONES
	VMOVUPD (DX), X8
	XORQ    AX, AX
	MOVQ    CX, BX
	ANDQ    $-4, BX
	JMP     check4

loop4:
	STENCIL4(SI, DI, R8, R11, R9, R10)
	VMOVUPD      Y4, (R12)(AX*8)
	VMULPD       Y4, Y5, Y6
	VADDPD       X6, X8, X8
	VEXTRACTF128 $1, Y6, X6
	VADDPD       X6, X8, X8
	ADDQ         $4, AX

check4:
	CMPQ AX, BX
	JLT  loop4
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  check1
	STENCIL2(SI, DI, R8, R11, R9, R10)
	VMOVUPD X4, (R12)(AX*8)
	VMULPD  X4, X5, X6
	VADDPD  X6, X8, X8
	MOVQ    BX, AX

check1:
	CMPQ AX, CX
	JGE  done
	STENCIL1(SI, DI, R8, R11, R9, R10)
	VMOVSD X4, (R12)(AX*8)
	VMULSD X4, X5, X6
	VADDSD X6, X8, X8

done:
	VMOVUPD X8, (DX)
	VZEROUPPER
	RET

// func chebyRow5AVX2(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64)
//
// Pointwise: rs = v = rs − A·p; v = ms·v if ms is not nil;
// ns = sn = α·c + β·v; zs += sn if zs is not nil.
TEXT ·chebyRow5AVX2(SB), NOSPLIT, $0-256
	LOAD_ONES
	MOVQ         kx_base+0(FP), SI
	MOVQ         ks_base+24(FP), DI
	MOVQ         kn_base+48(FP), R8
	MOVQ         p_base+72(FP), R9
	MOVQ         ps_base+96(FP), R10
	MOVQ         pn_base+120(FP), R11
	MOVQ         rs_base+144(FP), R12
	MOVQ         ms_base+168(FP), R13
	MOVQ         ns_base+192(FP), DX
	MOVQ         ns_len+200(FP), CX
	MOVQ         zs_base+216(FP), BX
	VMOVSD       alpha+240(FP), X13
	VBROADCASTSD X13, Y13
	VMOVSD       beta+248(FP), X14
	VBROADCASTSD X14, Y14
	XORQ         AX, AX
	SUBQ         $4, CX               // groups of four while AX ≤ n−4
	JMP          check4

loop4:
	STENCIL4(SI, R8, DI, R9, R11, R10)
	VMOVUPD (R12)(AX*8), Y0
	VSUBPD  Y4, Y0, Y0
	VMOVUPD Y0, (R12)(AX*8)
	TESTQ   R13, R13
	JZ      noms4
	VMULPD  (R13)(AX*8), Y0, Y0

noms4:
	VMULPD  Y5, Y13, Y5
	VMULPD  Y0, Y14, Y0
	VADDPD  Y0, Y5, Y5
	VMOVUPD Y5, (DX)(AX*8)
	TESTQ   BX, BX
	JZ      nozs4
	VADDPD  (BX)(AX*8), Y5, Y5
	VMOVUPD Y5, (BX)(AX*8)

nozs4:
	ADDQ $4, AX

check4:
	CMPQ AX, CX
	JLE  loop4
	ADDQ $4, CX
	JMP  check1

loop1:
	STENCIL1(SI, R8, DI, R9, R11, R10)
	VMOVSD (R12)(AX*8), X0
	VSUBSD X4, X0, X0
	VMOVSD X0, (R12)(AX*8)
	TESTQ  R13, R13
	JZ     noms1
	VMULSD (R13)(AX*8), X0, X0

noms1:
	VMULSD X5, X13, X5
	VMULSD X0, X14, X0
	VADDSD X0, X5, X5
	VMOVSD X5, (DX)(AX*8)
	TESTQ  BX, BX
	JZ     nozs1
	VADDSD (BX)(AX*8), X5, X5
	VMOVSD X5, (BX)(AX*8)

nozs1:
	INCQ AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET
