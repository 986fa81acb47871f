// IFMA52 body of the fused NTT passes (passes_amd64.h holds the loops).
// Callers guarantee q < 2^50, so every multiplier input (< 4q) fits the
// 52-bit multiplier. DESIGN.md §12 "Lanes" has the derivations.
//
// Register plan (the skeleton's, with the body's part filled in):
//   Z10–Z16  twiddles W1–W7
//   Z17–Z23  their Shoup factors over 2^52 (psiShoup >> 12), S1–S7
//   Z24–Z27  gather indices, or the fold's N^-1 and N^-1·psiInv[1] with
//            their factors
//   Z28 = q, Z29 = 2^52 − 1, Z30 = 2^52 − q, Z31 = 2q

#include "textflag.h"

// Modulus constants from q in AX into Z28–Z31.
#define CONSTS \
	VPBROADCASTQ AX, Z28; \
	LEAQ (AX)(AX*1), DX; \
	VPBROADCASTQ DX, Z31; \
	MOVQ $0xfffffffffffff, DX; \
	VPBROADCASTQ DX, Z29; \
	MOVQ $0x10000000000000, DX; \
	SUBQ AX, DX; \
	VPBROADCASTQ DX, Z30

// v = x·w − ⌊x·ws/2^52⌋·q, the lazy Shoup product in [0, 2q), for x < 2^52:
// the high product, then the low halves of x·w and hi·(2^52 − q) summed
// modulo 2^52. The factor needs no high half (wsh is unused).
#define MUL(x, w, ws, wsh, v) \
	VPXORQ Z9, Z9, Z9; \
	VPMADD52HUQ ws, x, Z9; \
	VPXORQ v, v, v; \
	VPMADD52LUQ w, x, v; \
	VPMADD52LUQ Z30, Z9, v; \
	VPANDQ Z29, v, v

#define W1 Z10
#define W2 Z11
#define W3 Z12
#define W4 Z13
#define W5 Z14
#define W6 Z15
#define W7 Z16
#define S1 Z17
#define S2 Z18
#define S3 Z19
#define S4 Z20
#define S5 Z21
#define S6 Z22
#define S7 Z23

#define NINV Z24
#define NINVS Z25
#define NINVW Z26
#define NINVWS Z27

#define TWB(pm, sm, w, s, h) \
	VPBROADCASTQ pm, w; \
	VPBROADCASTQ sm, s; \
	VPSRLQ $12, s, s

#define GATHER8 \
	GATHER(R8, W1, W2, W3, W4, W5, W6, W7); \
	GATHER(R9, S1, S2, S3, S4, S5, S6, S7); \
	VPSRLQ $12, S1, S1; \
	VPSRLQ $12, S2, S2; \
	VPSRLQ $12, S3, S3; \
	VPSRLQ $12, S4, S4; \
	VPSRLQ $12, S5, S5; \
	VPSRLQ $12, S6, S6; \
	VPSRLQ $12, S7, S7

#include "passes_amd64.h"

// func fwdLanes(a, psi, sh []uint64, kappa, m0, stride int, q uint64)
TEXT ·fwdLanes(SB), NOSPLIT, $0-104
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), CX
	MOVQ m0+80(FP), R13
	MOVQ stride+88(FP), SI
	MOVQ q+96(FP), AX
	FWD_PASS

// func fwd8LastLanes(a, psi, sh []uint64, m0 int, q uint64)
TEXT ·fwd8LastLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ m0+72(FP), CX
	MOVQ q+80(FP), AX
	FWD8LAST_PASS

// func inv8FirstLanes(a, psi, sh []uint64, segs int, q uint64)
TEXT ·inv8FirstLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), CX
	MOVQ q+80(FP), AX
	INV8FIRST_PASS

// func inv8Lanes(a, psi, sh []uint64, segs, stride int, q uint64)
TEXT ·inv8Lanes(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	INV8_PASS

// func invFoldLanes(a, psi, sh []uint64, kappa, stride int, q, nInv, nInvShoup, nInvW, nInvWShoup uint64)
TEXT ·invFoldLanes(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), BX
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	MOVQ nInv+96(FP), DX
	VPBROADCASTQ DX, NINV
	MOVQ nInvShoup+104(FP), DX
	VPBROADCASTQ DX, NINVS
	VPSRLQ $12, NINVS, NINVS
	MOVQ nInvW+112(FP), DX
	VPBROADCASTQ DX, NINVW
	MOVQ nInvWShoup+120(FP), DX
	VPBROADCASTQ DX, NINVWS
	VPSRLQ $12, NINVWS, NINVWS
	INVFOLD_PASS
