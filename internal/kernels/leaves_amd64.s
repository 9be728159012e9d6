#include "textflag.h"

// AVX2 forms of the merged CG step's row bursts. Every cell goes through
// the Go burst's expressions with the same operations in the same
// association — packed VADDPD/VSUBPD/VMULPD in place of the scalar ones,
// never an FMA — so each lane computes the bits the Go burst computes for
// that cell. The two dot lanes of cgStepSR are one xmm register to which
// a group of four cells adds its low half (cells j, j+1) and then its
// high half (j+2, j+3), as the Go burst's pairs do. See DESIGN.md, "AVX2
// row leaves".

// PX finishes burst 1 for the cells from AX, given U = r or ms·r:
// P = U + β·p; p = P; x = x + α·P. BETA and ALPHA hold β and α.
#define PX(LD, ADD, MUL, BETA, ALPHA, P, U) \
	LD  (DI)(AX*8), P;   \
	MUL P, BETA, P;      \
	ADD P, U, P;         \
	LD  P, (DI)(AX*8);   \
	MUL P, ALPHA, P;     \
	ADD (R9)(AX*8), P, P; \
	LD  P, (R9)(AX*8)

#define PX4 PX(VMOVUPD, VADDPD, VMULPD, Y13, Y14, Y0, Y1)
#define PX1 PX(VMOVSD, VADDSD, VMULSD, X13, X14, X0, X1)

// func cgStepPXAVX2(ms, rs, ps, xs []float64, beta, alpha float64)
TEXT ·cgStepPXAVX2(SB), NOSPLIT, $0-112
	MOVQ         ms_base+0(FP), R8
	MOVQ         rs_base+24(FP), SI
	MOVQ         ps_base+48(FP), DI
	MOVQ         ps_len+56(FP), CX
	MOVQ         xs_base+72(FP), R9
	VMOVSD       beta+96(FP), X13
	VBROADCASTSD X13, Y13
	VMOVSD       alpha+104(FP), X14
	VBROADCASTSD X14, Y14
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	TESTQ        R8, R8
	JNZ          precheck4
	JMP          idcheck4

idloop4:
	VMOVUPD (SI)(AX*8), Y1
	PX4
	ADDQ    $4, AX

idcheck4:
	CMPQ AX, BX
	JLT  idloop4
	JMP  idcheck1

idloop1:
	VMOVSD (SI)(AX*8), X1
	PX1
	INCQ   AX

idcheck1:
	CMPQ AX, CX
	JLT  idloop1
	VZEROUPPER
	RET

preloop4:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y1, Y1
	PX4
	ADDQ    $4, AX

precheck4:
	CMPQ AX, BX
	JLT  preloop4
	JMP  precheck1

preloop1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (R8)(AX*8), X1, X1
	PX1
	INCQ   AX

precheck1:
	CMPQ AX, CX
	JLT  preloop1
	VZEROUPPER
	RET

// SR is burst 2 for the cells from AX: S = w + β·s; s = S; V = r − α·S;
// r = V. BETA and ALPHA hold β and α; leaves V.
#define SR(LD, ADD, SUB, MUL, BETA, ALPHA, S, V) \
	LD  (R9)(AX*8), S;    \
	MUL S, BETA, S;       \
	ADD (DI)(AX*8), S, S; \
	LD  S, (R9)(AX*8);    \
	MUL S, ALPHA, S;      \
	LD  (SI)(AX*8), V;    \
	SUB S, V, V;          \
	LD  V, (SI)(AX*8)

#define SR4 SR(VMOVUPD, VADDPD, VSUBPD, VMULPD, Y13, Y14, Y0, Y1)
#define SR2 SR(VMOVUPD, VADDPD, VSUBPD, VMULPD, X13, X14, X0, X1)
#define SR1 SR(VMOVSD, VADDSD, VSUBSD, VMULSD, X13, X14, X0, X1)

// SRL is SR with the row of λ at R10 taken off w first, in T:
// S = (w − λ) + β·s, as cgStepSRLGo spells it (the add commutes).
#define SRL(LD, ADD, SUB, MUL, BETA, ALPHA, S, V, T) \
	LD  (DI)(AX*8), T;     \
	SUB (R10)(AX*8), T, T; \
	LD  (R9)(AX*8), S;     \
	MUL S, BETA, S;        \
	ADD T, S, S;           \
	LD  S, (R9)(AX*8);     \
	MUL S, ALPHA, S;       \
	LD  (SI)(AX*8), V;     \
	SUB S, V, V;           \
	LD  V, (SI)(AX*8)

#define SRL4 SRL(VMOVUPD, VADDPD, VSUBPD, VMULPD, Y13, Y14, Y0, Y1, Y4)
#define SRL2 SRL(VMOVUPD, VADDPD, VSUBPD, VMULPD, X13, X14, X0, X1, X4)
#define SRL1 SRL(VMOVSD, VADDSD, VSUBSD, VMULSD, X13, X14, X0, X1, X4)

// func cgStepSRAVX2(ms, rs, ws, ls, ss []float64, beta, alpha float64, l *CGStepLanes)
//
// Lanes (g0, g1) live in X10 and (rr0, rr1) in X11. A nil ls runs the SR
// loops, a non-nil one the SRL loops, which are the same code with SRL.
TEXT ·cgStepSRAVX2(SB), NOSPLIT, $0-144
	MOVQ         ms_base+0(FP), R8
	MOVQ         rs_base+24(FP), SI
	MOVQ         rs_len+32(FP), CX
	MOVQ         ws_base+48(FP), DI
	MOVQ         ls_base+72(FP), R10
	MOVQ         ss_base+96(FP), R9
	VMOVSD       beta+120(FP), X13
	VBROADCASTSD X13, Y13
	VMOVSD       alpha+128(FP), X14
	VBROADCASTSD X14, Y14
	MOVQ         l+136(FP), DX
	VMOVUPD      (DX), X10
	VMOVUPD      16(DX), X11
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	TESTQ        R10, R10
	JNZ          lambda
	TESTQ        R8, R8
	JNZ          precheck4
	JMP          idcheck4

idloop4:
	SR4
	VMULPD       Y1, Y1, Y2
	VADDPD       X2, X11, X11
	VEXTRACTF128 $1, Y2, X2
	VADDPD       X2, X11, X11
	ADDQ         $4, AX

idcheck4:
	CMPQ AX, BX
	JLT  idloop4
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  idcheck1
	SR2
	VMULPD X1, X1, X2
	VADDPD X2, X11, X11
	MOVQ   BX, AX

idcheck1:
	CMPQ AX, CX
	JGE  done
	SR1
	VMULSD X1, X1, X2
	VADDSD X2, X11, X11
	JMP    done

preloop4:
	SR4
	VMULPD       (R8)(AX*8), Y1, Y3
	VMULPD       Y1, Y3, Y3
	VADDPD       X3, X10, X10
	VEXTRACTF128 $1, Y3, X3
	VADDPD       X3, X10, X10
	VMULPD       Y1, Y1, Y2
	VADDPD       X2, X11, X11
	VEXTRACTF128 $1, Y2, X2
	VADDPD       X2, X11, X11
	ADDQ         $4, AX

precheck4:
	CMPQ AX, BX
	JLT  preloop4
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  precheck1
	SR2
	VMULPD (R8)(AX*8), X1, X3
	VMULPD X1, X3, X3
	VADDPD X3, X10, X10
	VMULPD X1, X1, X2
	VADDPD X2, X11, X11
	MOVQ   BX, AX

precheck1:
	CMPQ AX, CX
	JGE  done
	SR1
	VMULSD (R8)(AX*8), X1, X3
	VMULSD X1, X3, X3
	VADDSD X3, X10, X10
	VMULSD X1, X1, X2
	VADDSD X2, X11, X11
	JMP    done

lambda:
	TESTQ R8, R8
	JNZ   lprecheck4
	JMP   lidcheck4

lidloop4:
	SRL4
	VMULPD       Y1, Y1, Y2
	VADDPD       X2, X11, X11
	VEXTRACTF128 $1, Y2, X2
	VADDPD       X2, X11, X11
	ADDQ         $4, AX

lidcheck4:
	CMPQ AX, BX
	JLT  lidloop4
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  lidcheck1
	SRL2
	VMULPD X1, X1, X2
	VADDPD X2, X11, X11
	MOVQ   BX, AX

lidcheck1:
	CMPQ AX, CX
	JGE  done
	SRL1
	VMULSD X1, X1, X2
	VADDSD X2, X11, X11
	JMP    done

lpreloop4:
	SRL4
	VMULPD       (R8)(AX*8), Y1, Y3
	VMULPD       Y1, Y3, Y3
	VADDPD       X3, X10, X10
	VEXTRACTF128 $1, Y3, X3
	VADDPD       X3, X10, X10
	VMULPD       Y1, Y1, Y2
	VADDPD       X2, X11, X11
	VEXTRACTF128 $1, Y2, X2
	VADDPD       X2, X11, X11
	ADDQ         $4, AX

lprecheck4:
	CMPQ AX, BX
	JLT  lpreloop4
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  lprecheck1
	SRL2
	VMULPD (R8)(AX*8), X1, X3
	VMULPD X1, X3, X3
	VADDPD X3, X10, X10
	VMULPD X1, X1, X2
	VADDPD X2, X11, X11
	MOVQ   BX, AX

lprecheck1:
	CMPQ AX, CX
	JGE  done
	SRL1
	VMULSD (R8)(AX*8), X1, X3
	VMULSD X1, X3, X3
	VADDSD X3, X10, X10
	VMULSD X1, X1, X2
	VADDSD X2, X11, X11

done:
	VMOVUPD X10, (DX)
	VMOVUPD X11, 16(DX)
	VZEROUPPER
	RET
