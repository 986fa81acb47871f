//go:build !purego

// AVX-512 F + DQ body of the fused NTT passes (passes_amd64.h holds the
// loops): 64-bit lanes for every prime the IFMA52 body refuses. Every
// modulus is below 2^61, so every multiplier input (< 4q) is below 2^63 and
// the Go kernels' 64-bit Shoup factors apply as they are. DESIGN.md §12
// "Lanes" has the derivations.
//
// Register plan (the skeleton's, with the body's part filled in):
//   Z9, Z29, Z30  product temporaries
//   Z10–Z16  the twiddles' Shoup factors S1–S7 (VPMULUDQ reads the low half)
//   Z17–Z23  their high halves, S >> 32, H1–H7
//   twiddles W1–W7 in the frame, read as VPMULLQ memory operands
//   Z24–Z27  gather indices, or the fold's factors (N^-1 and N^-1·psiInv[1]
//            themselves in Z10 / Z17, which the fold's stages leave free)
//   Z28 = q, Z31 = 2q, K1 = the low dword of each word

#include "textflag.h"

// Modulus constants from q in AX into Z28 and Z31, the dword mask into K1.
#define CONSTS \
	VPBROADCASTQ AX, Z28; \
	LEAQ (AX)(AX*1), DX; \
	VPBROADCASTQ DX, Z31; \
	MOVQ $0x5555, DX; \
	KMOVW DX, K1

// v = x·w − ⌊x·ws/2^64⌋·q, the Go kernels' lazy Shoup product in [0, 2q),
// for x < 2^63. The high word of x·ws comes from four 32 × 32 partial
// products — x = xh·2^32 + xl, ws = sh·2^32 + sl:
//   m1 = xh·sl + ⌊xl·sl/2^32⌋,  m2 = xl·sh + (m1 mod 2^32),
//   ⌊x·ws/2^64⌋ = xh·sh + ⌊m1/2^32⌋ + ⌊m2/2^32⌋,
// each sum below 2^64 — then x·w and hi·q wrap modulo 2^64 as in Go.
#define MUL(x, w, ws, wsh, v) \
	VPSRLQ $32, x, Z9; \
	VPMULUDQ ws, x, Z29; \
	VPSRLQ $32, Z29, Z29; \
	VPMULUDQ ws, Z9, Z30; \
	VPADDQ Z29, Z30, Z30; \
	VMOVDQU32.Z Z30, K1, Z29; \
	VPSRLQ $32, Z30, Z30; \
	VPMULUDQ wsh, x, v; \
	VPADDQ Z29, v, v; \
	VPSRLQ $32, v, v; \
	VPMULUDQ wsh, Z9, Z9; \
	VPADDQ Z30, Z9, Z9; \
	VPADDQ v, Z9, Z9; \
	VPMULLQ Z28, Z9, Z9; \
	VPMULLQ w, x, v; \
	VPSUBQ Z9, v, v

#define W1 0(SP)
#define W2 64(SP)
#define W3 128(SP)
#define W4 192(SP)
#define W5 256(SP)
#define W6 320(SP)
#define W7 384(SP)
#define S1 Z10
#define S2 Z11
#define S3 Z12
#define S4 Z13
#define S5 Z14
#define S6 Z15
#define S7 Z16
#define H1 Z17
#define H2 Z18
#define H3 Z19
#define H4 Z20
#define H5 Z21
#define H6 Z22
#define H7 Z23

#define NINV Z10
#define NINVS Z24
#define NINVH Z25
#define NINVW Z17
#define NINVWS Z26
#define NINVWH Z27

#define TWB(pm, sm, w, s, h) \
	VPBROADCASTQ pm, Z8; \
	VMOVDQU64 Z8, w; \
	VPBROADCASTQ sm, s; \
	VPSRLQ $32, s, h

#define GATHER8 \
	GATHER(R8, S1, S2, S3, S4, S5, S6, S7); \
	VMOVDQU64 S1, W1; \
	VMOVDQU64 S2, W2; \
	VMOVDQU64 S3, W3; \
	VMOVDQU64 S4, W4; \
	VMOVDQU64 S5, W5; \
	VMOVDQU64 S6, W6; \
	VMOVDQU64 S7, W7; \
	GATHER(R9, S1, S2, S3, S4, S5, S6, S7); \
	VPSRLQ $32, S1, H1; \
	VPSRLQ $32, S2, H2; \
	VPSRLQ $32, S3, H3; \
	VPSRLQ $32, S4, H4; \
	VPSRLQ $32, S5, H5; \
	VPSRLQ $32, S6, H6; \
	VPSRLQ $32, S7, H7

// Fold constant c and its Shoup factor cs into w, s and h.
#define FOLDCONST(c, cs, w, s, h) \
	VPBROADCASTQ c, w; \
	VPBROADCASTQ cs, s; \
	VPSRLQ $32, s, h

#include "passes_amd64.h"

// func fwdDQ(a, psi, sh []uint64, kappa, m0, stride int, q uint64)
TEXT ·fwdDQ(SB), NOSPLIT, $448-104
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), CX
	MOVQ m0+80(FP), R13
	MOVQ stride+88(FP), SI
	MOVQ q+96(FP), AX
	FWD_PASS

// func fwd8LastDQ(a, psi, sh []uint64, m0 int, q uint64)
TEXT ·fwd8LastDQ(SB), NOSPLIT, $448-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ m0+72(FP), CX
	MOVQ q+80(FP), AX
	FWD8LAST_PASS

// func inv8FirstDQ(a, psi, sh []uint64, segs int, q uint64)
TEXT ·inv8FirstDQ(SB), NOSPLIT, $448-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), CX
	MOVQ q+80(FP), AX
	INV8FIRST_PASS

// func inv8DQ(a, psi, sh []uint64, segs, stride int, q uint64)
TEXT ·inv8DQ(SB), NOSPLIT, $448-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	INV8_PASS

// func invFoldDQ(a, psi, sh []uint64, kappa, stride int, q, nInv, nInvShoup, nInvW, nInvWShoup uint64)
TEXT ·invFoldDQ(SB), NOSPLIT, $448-128
	MOVQ a_base+0(FP), BX
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	MOVQ nInv+96(FP), DX
	MOVQ nInvShoup+104(FP), R10
	FOLDCONST(DX, R10, NINV, NINVS, NINVH)
	MOVQ nInvW+112(FP), DX
	MOVQ nInvWShoup+120(FP), R10
	FOLDCONST(DX, R10, NINVW, NINVWS, NINVWH)
	INVFOLD_PASS
