//go:build amd64

#include "textflag.h"

// The block kernels step four draws per instruction: a block is four
// adjacent feed words and the four tap words 334 below them, mod 607. A
// kernel takes the whole blocks at the top of a run (feed words fv, tap
// words tv as long as fv) and leaves the len(fv) mod 4 words below them.
// The feed word a draw writes is read again no sooner than 273 draws
// later, so the four draws of a block never read each other's sums; taking
// the blocks from the top down keeps every read of an earlier block's sum
// in order. A block's lanes hold its words in address order, so lane 3 is
// the block's first draw and lane 0 its last. Only VEX-encoded
// instructions touch vector registers: one legacy SSE instruction among
// them costs a state transition on every call.

// rejectAt is keepBound−1: a masked draw above it is rejected.
DATA rejectAt<>+0(SB)/8, $0x7ffffffffffffdff
GLOBL rejectAt<>(SB), RODATA|NOPTR, $8

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, a+8(FP)
	MOVL	BX, b+12(FP)
	MOVL	CX, c+16(FP)
	MOVL	DX, d+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, lo+0(FP)
	MOVL	DX, hi+4(FP)
	RET

// func belowAVX2(fv, tv []int64, th uint64) (below, rejected int)
TEXT ·belowAVX2(SB), NOSPLIT, $0-72
	MOVQ	fv_base+0(FP), SI
	MOVQ	tv_base+24(FP), DI
	MOVQ	fv_len+8(FP), CX
	MOVQ	CX, BX
	ANDQ	$3, BX // the words below the blocks
	LEAQ	(SI)(BX*8), SI
	LEAQ	(DI)(BX*8), DI
	SUBQ	BX, CX
	SHLQ	$3, CX // the blocks' bytes
	VPBROADCASTQ	th+48(FP), Y1
	VPBROADCASTQ	rejectAt<>(SB), Y2
	VPCMPEQQ	Y3, Y3, Y3
	VPSRLQ	$1, Y3, Y3 // the Int63 mask
	VPXOR	Y4, Y4, Y4 // draws below th, per lane
	VPXOR	Y5, Y5, Y5 // rejected draws, per lane
	TESTQ	CX, CX
	JZ	belowSum

belowLoop:
	SUBQ	$32, CX // ZF marks the bottom block; no vector instruction sets flags
	VMOVDQU	(SI)(CX*1), Y0
	VPADDQ	(DI)(CX*1), Y0, Y0
	VMOVDQU	Y0, (SI)(CX*1)
	VPAND	Y3, Y0, Y0
	VPCMPGTQ	Y0, Y1, Y6 // th > u
	VPSUBQ	Y6, Y4, Y4
	VPCMPGTQ	Y2, Y0, Y6 // u ≥ keepBound
	VPSUBQ	Y6, Y5, Y5
	JNZ	belowLoop

belowSum:
	VEXTRACTI128	$1, Y4, X6
	VPADDQ	X6, X4, X4
	VPSHUFD	$0x4e, X4, X6
	VPADDQ	X6, X4, X4
	VMOVQ	X4, AX
	MOVQ	AX, below+56(FP)
	VEXTRACTI128	$1, Y5, X6
	VPADDQ	X6, X5, X5
	VPSHUFD	$0x4e, X5, X6
	VPADDQ	X6, X5, X5
	VMOVQ	X5, AX
	MOVQ	AX, rejected+64(FP)
	VZEROUPPER
	RET

// func pairsAVX2(fv, tv []int64, tp, tq uint64) (left, hp, hq, both int)
//
// A block is two rounds: lanes 3 and 1 are first draws, compared with tp,
// and lanes 2 and 0 second draws, compared with tq.
TEXT ·pairsAVX2(SB), NOSPLIT, $0-96
	MOVQ	fv_base+0(FP), SI
	MOVQ	tv_base+24(FP), DI
	MOVQ	fv_len+8(FP), CX
	MOVQ	CX, BX
	ANDQ	$3, BX // the words below the blocks
	LEAQ	(SI)(BX*8), SI
	LEAQ	(DI)(BX*8), DI
	SUBQ	BX, CX
	SHLQ	$3, CX // the blocks' bytes
	VPBROADCASTQ	tq+56(FP), Y1
	VPBROADCASTQ	tp+48(FP), Y7
	VPBLENDD	$0xcc, Y7, Y1, Y1 // lanes 1 and 3 take tp
	VPBROADCASTQ	rejectAt<>(SB), Y2
	VPCMPEQQ	Y3, Y3, Y3
	VPSRLQ	$1, Y3, Y3 // the Int63 mask
	VPXOR	Y4, Y4, Y4 // hits, per lane
	VPXOR	Y5, Y5, Y5 // rounds with both hits, in lanes 0 and 2
	TESTQ	CX, CX
	JZ	pairsSum

pairsLoop:
	SUBQ	$32, CX
	VMOVDQU	(SI)(CX*1), Y0
	VPADDQ	(DI)(CX*1), Y0, Y0
	VPAND	Y3, Y0, Y6
	VPCMPGTQ	Y2, Y6, Y7 // u ≥ keepBound
	VPTEST	Y7, Y7
	JNZ	pairsStop
	VMOVDQU	Y0, (SI)(CX*1)
	VPCMPGTQ	Y6, Y1, Y7 // th > u
	VPSUBQ	Y7, Y4, Y4
	VPSRLDQ	$8, Y7, Y8 // each round's first hit moves onto its second
	VPAND	Y7, Y8, Y8
	VPSUBQ	Y8, Y5, Y5
	TESTQ	CX, CX
	JNZ	pairsLoop
	JMP	pairsSum

pairsStop:
	ADDQ	$32, CX // the rejecting block is left to the caller

pairsSum:
	SHRQ	$3, CX
	ADDQ	CX, BX
	MOVQ	BX, left+64(FP)
	VEXTRACTI128	$1, Y4, X7
	VPADDQ	X7, X4, X4 // lane 0: second draws, lane 1: first draws
	VMOVQ	X4, AX
	MOVQ	AX, hq+80(FP)
	VPEXTRQ	$1, X4, AX
	MOVQ	AX, hp+72(FP)
	VEXTRACTI128	$1, Y5, X7
	VPADDQ	X7, X5, X5
	VMOVQ	X5, AX
	MOVQ	AX, both+88(FP)
	VZEROUPPER
	RET
