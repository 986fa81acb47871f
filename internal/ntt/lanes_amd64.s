// IFMA52 bodies of the fused NTT passes: eight coefficients a ZMM register,
// the same butterflies and the same [0, 4q) / [0, 2q) band rules as the Go
// kernels of fused_kernels.go and fused_inverse_kernels.go. Callers
// guarantee q < 2^50, so every multiplier input (< 4q) fits the 52-bit
// multiplier, and N ≥ 64, so every strided row and every group of eight
// contiguous blocks is a whole number of registers. DESIGN.md §12 "Lanes"
// has the derivations.
//
// Register plan, shared by every kernel:
//   Z0–Z7    the eight rows of a radix-8 block (Z0–Z3 / Z0–Z1 at κ = 2 / 1)
//   Z8, Z9   butterfly and gather scratch
//   Z10–Z16  twiddles: Z10 = psi[i], Z11 = psi[2i], Z12 = psi[2i+1],
//            Z13–Z16 = psi[4i .. 4i+3] — the three bit-reversed runs a
//            radix-8 segment reads, forward and inverse alike
//   Z17–Z23  their Shoup factors over 2^52 (psiShoup >> 12), same order
//   Z24–Z27  gather indices (contiguous passes) or the N^-1 fold constants
//   Z28 = q, Z29 = 2^52 − 1, Z30 = 2^52 − q, Z31 = 2q

#include "textflag.h"

// VPERMT2Q indices of the contiguous passes' twiddle gathers: even and odd
// words of a 16-word run (psi[2i], psi[2i+1] for eight consecutive i), and
// words 0 / 1 (with 2 / 3 in the upper half) of each 4-word group.
DATA lanesIdx<>+0(SB)/8, $0
DATA lanesIdx<>+8(SB)/8, $2
DATA lanesIdx<>+16(SB)/8, $4
DATA lanesIdx<>+24(SB)/8, $6
DATA lanesIdx<>+32(SB)/8, $8
DATA lanesIdx<>+40(SB)/8, $10
DATA lanesIdx<>+48(SB)/8, $12
DATA lanesIdx<>+56(SB)/8, $14
DATA lanesIdx<>+64(SB)/8, $1
DATA lanesIdx<>+72(SB)/8, $3
DATA lanesIdx<>+80(SB)/8, $5
DATA lanesIdx<>+88(SB)/8, $7
DATA lanesIdx<>+96(SB)/8, $9
DATA lanesIdx<>+104(SB)/8, $11
DATA lanesIdx<>+112(SB)/8, $13
DATA lanesIdx<>+120(SB)/8, $15
DATA lanesIdx<>+128(SB)/8, $0
DATA lanesIdx<>+136(SB)/8, $4
DATA lanesIdx<>+144(SB)/8, $8
DATA lanesIdx<>+152(SB)/8, $12
DATA lanesIdx<>+160(SB)/8, $2
DATA lanesIdx<>+168(SB)/8, $6
DATA lanesIdx<>+176(SB)/8, $10
DATA lanesIdx<>+184(SB)/8, $14
DATA lanesIdx<>+192(SB)/8, $1
DATA lanesIdx<>+200(SB)/8, $5
DATA lanesIdx<>+208(SB)/8, $9
DATA lanesIdx<>+216(SB)/8, $13
DATA lanesIdx<>+224(SB)/8, $3
DATA lanesIdx<>+232(SB)/8, $7
DATA lanesIdx<>+240(SB)/8, $11
DATA lanesIdx<>+248(SB)/8, $15
GLOBL lanesIdx<>(SB), RODATA|NOPTR, $256

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
// modulo 2^52. v and t must differ from x.
#define MULLAZY(x, w, ws, v, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ ws, x, t; \
	VPXORQ v, v, v; \
	VPMADD52LUQ w, x, v; \
	VPMADD52LUQ Z30, t, v; \
	VPANDQ Z29, v, v

// Forward (Cooley–Tukey) butterfly in [0, 4q): a is corrected below 2q,
// then (a, b) ← (a + v, a + 2q − v) with v = b·w lazily.
#define FWD(a, b, w, ws) \
	VPSUBQ Z31, a, Z8; \
	VPMINUQ Z8, a, a; \
	MULLAZY(b, w, ws, Z8, Z9); \
	VPADDQ Z31, a, b; \
	VPSUBQ Z8, b, b; \
	VPADDQ Z8, a, a

// Inverse (Gentleman–Sande) butterfly in [0, 2q):
// (a, b) ← (a + b corrected below 2q, (a + 2q − b)·w lazily).
#define INV(a, b, w, ws) \
	VPADDQ Z31, a, Z8; \
	VPSUBQ b, Z8, Z8; \
	VPADDQ b, a, a; \
	VPSUBQ Z31, a, Z9; \
	VPMINUQ Z9, a, a; \
	MULLAZY(Z8, w, ws, b, Z9)

// The inverse's last stage with N^-1 folded in, fully reduced:
// (a, b) ← ((a + b)·N^-1, (a + 2q − b)·N^-1·psiInv[1]) by exact products
// (Z24/Z25 and Z26/Z27 hold the two constants and their factors).
#define FOLD(a, b) \
	VPADDQ Z31, a, Z8; \
	VPSUBQ b, Z8, Z8; \
	VPADDQ b, a, a; \
	MULLAZY(Z8, Z26, Z27, b, Z9); \
	VPSUBQ Z28, b, Z9; \
	VPMINUQ Z9, b, b; \
	MULLAZY(a, Z24, Z25, Z8, Z9); \
	VPSUBQ Z28, Z8, Z9; \
	VPMINUQ Z9, Z8, a

// [0, 4q) → [0, q): the forward transform's one deferred normalization.
#define REDUCE(a) \
	VPSUBQ Z31, a, Z8; \
	VPMINUQ Z8, a, a; \
	VPSUBQ Z28, a, Z8; \
	VPMINUQ Z8, a, a

// Radix-8 forward block on Z0–Z7, stages as in fwdPass8.
#define FWD8 \
	FWD(Z0, Z4, Z10, Z17); \
	FWD(Z1, Z5, Z10, Z17); \
	FWD(Z2, Z6, Z10, Z17); \
	FWD(Z3, Z7, Z10, Z17); \
	FWD(Z0, Z2, Z11, Z18); \
	FWD(Z1, Z3, Z11, Z18); \
	FWD(Z4, Z6, Z12, Z19); \
	FWD(Z5, Z7, Z12, Z19); \
	FWD(Z0, Z1, Z13, Z20); \
	FWD(Z2, Z3, Z14, Z21); \
	FWD(Z4, Z5, Z15, Z22); \
	FWD(Z6, Z7, Z16, Z23)

// The first two stages of a radix-8 inverse block, as in invPass8.
#define INV8HEAD \
	INV(Z0, Z1, Z13, Z20); \
	INV(Z2, Z3, Z14, Z21); \
	INV(Z4, Z5, Z15, Z22); \
	INV(Z6, Z7, Z16, Z23); \
	INV(Z0, Z2, Z11, Z18); \
	INV(Z1, Z3, Z11, Z18); \
	INV(Z4, Z6, Z12, Z19); \
	INV(Z5, Z7, Z12, Z19)

#define INV8 \
	INV8HEAD; \
	INV(Z0, Z4, Z10, Z17); \
	INV(Z1, Z5, Z10, Z17); \
	INV(Z2, Z6, Z10, Z17); \
	INV(Z3, Z7, Z10, Z17)

// Strided passes: R8 / R9 = psi / its Shoup factors, R10 = 8·i for the
// segment's i. Each twiddle is broadcast to all eight lanes.
#define BCAST1 \
	VPBROADCASTQ (R8)(R10*1), Z10; \
	VPBROADCASTQ (R9)(R10*1), Z17; \
	VPSRLQ $12, Z17, Z17

#define BCAST2 \
	VPBROADCASTQ (R8)(R10*2), Z11; \
	VPBROADCASTQ 8(R8)(R10*2), Z12; \
	VPBROADCASTQ (R9)(R10*2), Z18; \
	VPBROADCASTQ 8(R9)(R10*2), Z19; \
	VPSRLQ $12, Z18, Z18; \
	VPSRLQ $12, Z19, Z19

#define BCAST4 \
	VPBROADCASTQ (R8)(R10*4), Z13; \
	VPBROADCASTQ 8(R8)(R10*4), Z14; \
	VPBROADCASTQ 16(R8)(R10*4), Z15; \
	VPBROADCASTQ 24(R8)(R10*4), Z16; \
	VPBROADCASTQ (R9)(R10*4), Z20; \
	VPBROADCASTQ 8(R9)(R10*4), Z21; \
	VPBROADCASTQ 16(R9)(R10*4), Z22; \
	VPBROADCASTQ 24(R9)(R10*4), Z23; \
	VPSRLQ $12, Z20, Z20; \
	VPSRLQ $12, Z21, Z21; \
	VPSRLQ $12, Z22, Z22; \
	VPSRLQ $12, Z23, Z23

// Rows of a strided block: BX = row 0, R12 = row 4, SI = the stride in
// bytes, R11 = three strides.
#define LOAD2 \
	VMOVDQU64 (BX), Z0; \
	VMOVDQU64 (BX)(SI*1), Z1

#define STORE2 \
	VMOVDQU64 Z0, (BX); \
	VMOVDQU64 Z1, (BX)(SI*1)

#define LOAD4 \
	LOAD2; \
	VMOVDQU64 (BX)(SI*2), Z2; \
	VMOVDQU64 (BX)(R11*1), Z3

#define STORE4 \
	STORE2; \
	VMOVDQU64 Z2, (BX)(SI*2); \
	VMOVDQU64 Z3, (BX)(R11*1)

#define LOAD8 \
	LOAD4; \
	VMOVDQU64 (R12), Z4; \
	VMOVDQU64 (R12)(SI*1), Z5; \
	VMOVDQU64 (R12)(SI*2), Z6; \
	VMOVDQU64 (R12)(R11*1), Z7

#define STORE8 \
	STORE4; \
	VMOVDQU64 Z4, (R12); \
	VMOVDQU64 Z5, (R12)(SI*1); \
	VMOVDQU64 Z6, (R12)(SI*2); \
	VMOVDQU64 Z7, (R12)(R11*1)

// 8×8 transpose of 64-bit words: rows r0–r7 in, columns out in t0–t7
// (the r registers are clobbered).
#define TRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VPUNPCKLQDQ r1, r0, t0; \
	VPUNPCKHQDQ r1, r0, t1; \
	VPUNPCKLQDQ r3, r2, t2; \
	VPUNPCKHQDQ r3, r2, t3; \
	VPUNPCKLQDQ r5, r4, t4; \
	VPUNPCKHQDQ r5, r4, t5; \
	VPUNPCKLQDQ r7, r6, t6; \
	VPUNPCKHQDQ r7, r6, t7; \
	VSHUFI64X2 $0x88, t2, t0, r0; \
	VSHUFI64X2 $0xdd, t2, t0, r2; \
	VSHUFI64X2 $0x88, t3, t1, r1; \
	VSHUFI64X2 $0xdd, t3, t1, r3; \
	VSHUFI64X2 $0x88, t6, t4, r4; \
	VSHUFI64X2 $0xdd, t6, t4, r6; \
	VSHUFI64X2 $0x88, t7, t5, r5; \
	VSHUFI64X2 $0xdd, t7, t5, r7; \
	VSHUFI64X2 $0x88, r4, r0, t0; \
	VSHUFI64X2 $0xdd, r4, r0, t4; \
	VSHUFI64X2 $0x88, r6, r2, t2; \
	VSHUFI64X2 $0xdd, r6, r2, t6; \
	VSHUFI64X2 $0x88, r5, r1, t1; \
	VSHUFI64X2 $0xdd, r5, r1, t5; \
	VSHUFI64X2 $0x88, r7, r3, t3; \
	VSHUFI64X2 $0xdd, r7, r3, t7

// Contiguous passes: lane g holds segment i0 + g (R10 = 8·i0), whose
// twiddles sit at psi[i0+g], psi[2(i0+g)], psi[2(i0+g)+1] and
// psi[4(i0+g) .. 4(i0+g)+3]. The first run loads as is; the others are
// pulled out of the 16- and 32-word runs that start at 2·i0 and 4·i0.
#define GATHER(p, w1, w2, w3, w4, w5, w6, w7) \
	VMOVDQU64 (p)(R10*1), w1; \
	VMOVDQU64 (p)(R10*2), w2; \
	VPERMT2Q 64(p)(R10*2), Z24, w2; \
	VMOVDQU64 (p)(R10*2), w3; \
	VPERMT2Q 64(p)(R10*2), Z25, w3; \
	VMOVDQU64 (p)(R10*4), Z8; \
	VPERMT2Q 64(p)(R10*4), Z26, Z8; \
	VMOVDQU64 128(p)(R10*4), Z9; \
	VPERMT2Q 192(p)(R10*4), Z26, Z9; \
	VSHUFI64X2 $0x44, Z9, Z8, w4; \
	VSHUFI64X2 $0xee, Z9, Z8, w6; \
	VMOVDQU64 (p)(R10*4), Z8; \
	VPERMT2Q 64(p)(R10*4), Z27, Z8; \
	VMOVDQU64 128(p)(R10*4), Z9; \
	VPERMT2Q 192(p)(R10*4), Z27, Z9; \
	VSHUFI64X2 $0x44, Z9, Z8, w5; \
	VSHUFI64X2 $0xee, Z9, Z8, w7

#define GATHER8 \
	GATHER(R8, Z10, Z11, Z12, Z13, Z14, Z15, Z16); \
	GATHER(R9, Z17, Z18, Z19, Z20, Z21, Z22, Z23); \
	VPSRLQ $12, Z17, Z17; \
	VPSRLQ $12, Z18, Z18; \
	VPSRLQ $12, Z19, Z19; \
	VPSRLQ $12, Z20, Z20; \
	VPSRLQ $12, Z21, Z21; \
	VPSRLQ $12, Z22, Z22; \
	VPSRLQ $12, Z23, Z23

#define IDX \
	MOVQ $lanesIdx<>(SB), DX; \
	VMOVDQU64 (DX), Z24; \
	VMOVDQU64 64(DX), Z25; \
	VMOVDQU64 128(DX), Z26; \
	VMOVDQU64 192(DX), Z27

// Eight contiguous radix-8 blocks at DI: loaded and transposed into
// Z0–Z7, so register k holds coefficient k of every block; and back.
#define LOADT \
	VMOVDQU64 (DI), Z8; \
	VMOVDQU64 64(DI), Z9; \
	VMOVDQU64 128(DI), Z10; \
	VMOVDQU64 192(DI), Z11; \
	VMOVDQU64 256(DI), Z12; \
	VMOVDQU64 320(DI), Z13; \
	VMOVDQU64 384(DI), Z14; \
	VMOVDQU64 448(DI), Z15; \
	TRANSPOSE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

#define STORET \
	TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15); \
	VMOVDQU64 Z8, (DI); \
	VMOVDQU64 Z9, 64(DI); \
	VMOVDQU64 Z10, 128(DI); \
	VMOVDQU64 Z11, 192(DI); \
	VMOVDQU64 Z12, 256(DI); \
	VMOVDQU64 Z13, 320(DI); \
	VMOVDQU64 Z14, 384(DI); \
	VMOVDQU64 Z15, 448(DI)

// func fwdLanes(a, psi, sh []uint64, kappa, m0, stride int, q uint64)
//
// One non-final forward pass of κ = kappa ∈ {1, 2, 3} stages over m0
// segments at a stride ≥ 8 (fwdPass8 / fwdPass4 / fwdPass2).
TEXT ·fwdLanes(SB), NOSPLIT, $0-104
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), CX
	MOVQ m0+80(FP), R13
	MOVQ stride+88(FP), SI
	MOVQ q+96(FP), AX
	CONSTS
	MOVQ R13, R10
	SHLQ $3, R10
	SHLQ $3, SI
	LEAQ (SI)(SI*2), R11
	CMPQ CX, $2
	JEQ  fwd4
	JLT  fwd2

fwd8:
	BCAST1
	BCAST2
	BCAST4
	MOVQ DI, BX
	LEAQ (DI)(SI*4), R12
	MOVQ SI, CX

fwd8col:
	LOAD8
	FWD8
	STORE8
	ADDQ $64, BX
	ADDQ $64, R12
	SUBQ $64, CX
	JNZ  fwd8col
	LEAQ (DI)(SI*8), DI
	ADDQ $8, R10
	DECQ R13
	JNZ  fwd8
	VZEROUPPER
	RET

fwd4:
	BCAST1
	BCAST2
	MOVQ DI, BX
	MOVQ SI, CX

fwd4col:
	LOAD4
	FWD(Z0, Z2, Z10, Z17)
	FWD(Z1, Z3, Z10, Z17)
	FWD(Z0, Z1, Z11, Z18)
	FWD(Z2, Z3, Z12, Z19)
	STORE4
	ADDQ $64, BX
	SUBQ $64, CX
	JNZ  fwd4col
	LEAQ (DI)(SI*4), DI
	ADDQ $8, R10
	DECQ R13
	JNZ  fwd4
	VZEROUPPER
	RET

fwd2:
	BCAST1
	MOVQ DI, BX
	MOVQ SI, CX

fwd2col:
	LOAD2
	FWD(Z0, Z1, Z10, Z17)
	STORE2
	ADDQ $64, BX
	SUBQ $64, CX
	JNZ  fwd2col
	LEAQ (DI)(SI*2), DI
	ADDQ $8, R10
	DECQ R13
	JNZ  fwd2
	VZEROUPPER
	RET

// func fwd8LastLanes(a, psi, sh []uint64, m0 int, q uint64)
//
// The final forward radix-8 pass (stride 1, fwdPass8Last): m0 contiguous
// blocks, eight at a time, each output fully reduced.
TEXT ·fwd8LastLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ m0+72(FP), CX
	MOVQ q+80(FP), AX
	CONSTS
	IDX
	MOVQ CX, R10
	SHLQ $3, R10
	SHRQ $3, CX

fwdlast:
	LOADT
	GATHER8
	FWD8
	REDUCE(Z0)
	REDUCE(Z1)
	REDUCE(Z2)
	REDUCE(Z3)
	REDUCE(Z4)
	REDUCE(Z5)
	REDUCE(Z6)
	REDUCE(Z7)
	STORET
	ADDQ $512, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  fwdlast
	VZEROUPPER
	RET

// func inv8FirstLanes(a, psi, sh []uint64, segs int, q uint64)
//
// The first inverse radix-8 pass (stride 1, invPass8First): segs
// contiguous blocks, eight at a time.
TEXT ·inv8FirstLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), CX
	MOVQ q+80(FP), AX
	CONSTS
	IDX
	MOVQ CX, R10
	SHLQ $3, R10
	SHRQ $3, CX

invfirst:
	LOADT
	GATHER8
	INV8
	STORET
	ADDQ $512, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  invfirst
	VZEROUPPER
	RET

// func inv8Lanes(a, psi, sh []uint64, segs, stride int, q uint64)
//
// A middle inverse radix-8 pass over segs segments at a stride ≥ 8
// (invPass8).
TEXT ·inv8Lanes(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ segs+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	CONSTS
	MOVQ R13, R10
	SHLQ $3, R10
	SHLQ $3, SI
	LEAQ (SI)(SI*2), R11

inv8:
	BCAST1
	BCAST2
	BCAST4
	MOVQ DI, BX
	LEAQ (DI)(SI*4), R12
	MOVQ SI, CX

inv8col:
	LOAD8
	INV8
	STORE8
	ADDQ $64, BX
	ADDQ $64, R12
	SUBQ $64, CX
	JNZ  inv8col
	LEAQ (DI)(SI*8), DI
	ADDQ $8, R10
	DECQ R13
	JNZ  inv8
	VZEROUPPER
	RET

// func invFoldLanes(a, psi, sh []uint64, kappa, stride int, q, nInv, nInvShoup, nInvW, nInvWShoup uint64)
//
// The final inverse pass of κ = kappa ∈ {1, 2, 3} stages — one segment
// whose last stage folds N^-1 (invPass8Fold / invPass4Fold / invPass2Fold).
TEXT ·invFoldLanes(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), BX
	MOVQ psi_base+24(FP), R8
	MOVQ sh_base+48(FP), R9
	MOVQ kappa+72(FP), R13
	MOVQ stride+80(FP), SI
	MOVQ q+88(FP), AX
	CONSTS
	MOVQ nInv+96(FP), DX
	VPBROADCASTQ DX, Z24
	MOVQ nInvShoup+104(FP), DX
	VPBROADCASTQ DX, Z25
	VPSRLQ $12, Z25, Z25
	MOVQ nInvW+112(FP), DX
	VPBROADCASTQ DX, Z26
	MOVQ nInvWShoup+120(FP), DX
	VPBROADCASTQ DX, Z27
	VPSRLQ $12, Z27, Z27
	MOVQ $8, R10
	SHLQ $3, SI
	LEAQ (SI)(SI*2), R11
	MOVQ SI, CX
	CMPQ R13, $2
	JEQ  fold4
	JLT  fold2
	BCAST2
	BCAST4
	LEAQ (BX)(SI*4), R12

fold8:
	LOAD8
	INV8HEAD
	FOLD(Z0, Z4)
	FOLD(Z1, Z5)
	FOLD(Z2, Z6)
	FOLD(Z3, Z7)
	STORE8
	ADDQ $64, BX
	ADDQ $64, R12
	SUBQ $64, CX
	JNZ  fold8
	VZEROUPPER
	RET

fold4:
	BCAST2

fold4col:
	LOAD4
	INV(Z0, Z1, Z11, Z18)
	INV(Z2, Z3, Z12, Z19)
	FOLD(Z0, Z2)
	FOLD(Z1, Z3)
	STORE4
	ADDQ $64, BX
	SUBQ $64, CX
	JNZ  fold4col
	VZEROUPPER
	RET

fold2:
	LOAD2
	FOLD(Z0, Z1)
	STORE2
	ADDQ $64, BX
	SUBQ $64, CX
	JNZ  fold2
	VZEROUPPER
	RET
