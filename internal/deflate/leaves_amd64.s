#include "textflag.h"

// AVX2 form of the restriction's lane leaf. The eight lanes are laneSumGo's:
// lanes 0–3 live in Y0 and lanes 4–7 in Y1, each group of eight cells adds
// its low half to Y0 and its high half to Y1 with VADDPD — the scalar
// adds of the Go leaf, lane for lane, in the same order — and the cells
// past the last full group add into lane 0 one at a time, after the lanes
// are stored. See DESIGN.md, "AVX2 row leaves".

// func laneSumAVX2(xs []float64, l *[8]float64)
TEXT ·laneSumAVX2(SB), NOSPLIT, $0-32
	MOVQ    xs_base+0(FP), SI
	MOVQ    xs_len+8(FP), CX
	MOVQ    l+24(FP), DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	XORQ    AX, AX
	MOVQ    CX, BX
	ANDQ    $-8, BX
	JMP     check8

loop8:
	VADDPD (SI)(AX*8), Y0, Y0
	VADDPD 32(SI)(AX*8), Y1, Y1
	ADDQ   $8, AX

check8:
	CMPQ    AX, BX
	JLT     loop8
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVSD  (DX), X2
	JMP     check1

loop1:
	VADDSD (SI)(AX*8), X2, X2
	INCQ   AX

check1:
	CMPQ   AX, CX
	JLT    loop1
	VMOVSD X2, (DX)
	VZEROUPPER
	RET
