// The pass skeleton of the two vector bodies of the fused NTT, included by
// lanes_amd64.s (IFMA52, q < 2^50) and dq_amd64.s (AVX-512 DQ, q < 2^61):
// the butterflies, the block, transpose and twiddle-gather macros, and the
// five pass loops. Both bodies run the same butterflies and the same
// [0, 4q) / [0, 2q) band rules as the Go kernels of fused_kernels.go and
// fused_inverse_kernels.go, eight coefficients a ZMM register. Callers
// guarantee N ≥ 64, so every strided row and every group of eight
// contiguous blocks is a whole number of registers. DESIGN.md §12 "Lanes"
// has the derivations.
//
// Each body defines, before including this file:
//   CONSTS                 the modulus constants, from q in AX (may clobber DX)
//   MUL(x, w, ws, wsh, v)  v = the lazy Shoup product x·w in [0, 2q) for
//                          x < 4q; v must differ from x; clobbers Z9 and
//                          the body's own temporaries
//   W1…W7, S1…S7, H1…H7    the operands holding twiddle j, its Shoup factor
//                          and the factor's high half (a body that has no
//                          use for the high half never names H)
//   TWB(pm, sm, w, s, h)   broadcast one twiddle and its Shoup factor from
//                          psi / sh memory into w, s (and h)
//   GATHER8                the contiguous passes' twiddles into W, S (and H)
//   NINV, NINVS, NINVH     N^-1 and its factor, for the fold
//   NINVW, NINVWS, NINVWH  N^-1·psiInv[1] and its factor, for the fold
//
// Register plan, shared by both bodies:
//   Z0–Z7    the eight rows of a radix-8 block (Z0–Z3 / Z0–Z1 at κ = 2 / 1)
//   Z8, Z9   butterfly, product and gather scratch
//   Z10–Z23  the twiddles and their factors, as the body places them
//   Z24–Z27  gather indices (contiguous passes) or fold constants
//   Z28 = q, Z31 = 2q; Z29, Z30 are the body's
//
// Twiddle j of a segment: j = 1 is psi[i], j = 2, 3 are psi[2i], psi[2i+1],
// j = 4 … 7 are psi[4i .. 4i+3] — the three bit-reversed runs a radix-8
// segment reads, forward and inverse alike.

// VPERMT2Q indices of the contiguous passes' twiddle gathers: even and odd
// words of a 16-word run (psi[2i], psi[2i+1] for eight consecutive i), and
// words 0 / 1 (with 2 / 3 in the upper half) of each 4-word group.
DATA gatherIdx<>+0(SB)/8, $0
DATA gatherIdx<>+8(SB)/8, $2
DATA gatherIdx<>+16(SB)/8, $4
DATA gatherIdx<>+24(SB)/8, $6
DATA gatherIdx<>+32(SB)/8, $8
DATA gatherIdx<>+40(SB)/8, $10
DATA gatherIdx<>+48(SB)/8, $12
DATA gatherIdx<>+56(SB)/8, $14
DATA gatherIdx<>+64(SB)/8, $1
DATA gatherIdx<>+72(SB)/8, $3
DATA gatherIdx<>+80(SB)/8, $5
DATA gatherIdx<>+88(SB)/8, $7
DATA gatherIdx<>+96(SB)/8, $9
DATA gatherIdx<>+104(SB)/8, $11
DATA gatherIdx<>+112(SB)/8, $13
DATA gatherIdx<>+120(SB)/8, $15
DATA gatherIdx<>+128(SB)/8, $0
DATA gatherIdx<>+136(SB)/8, $4
DATA gatherIdx<>+144(SB)/8, $8
DATA gatherIdx<>+152(SB)/8, $12
DATA gatherIdx<>+160(SB)/8, $2
DATA gatherIdx<>+168(SB)/8, $6
DATA gatherIdx<>+176(SB)/8, $10
DATA gatherIdx<>+184(SB)/8, $14
DATA gatherIdx<>+192(SB)/8, $1
DATA gatherIdx<>+200(SB)/8, $5
DATA gatherIdx<>+208(SB)/8, $9
DATA gatherIdx<>+216(SB)/8, $13
DATA gatherIdx<>+224(SB)/8, $3
DATA gatherIdx<>+232(SB)/8, $7
DATA gatherIdx<>+240(SB)/8, $11
DATA gatherIdx<>+248(SB)/8, $15
GLOBL gatherIdx<>(SB), RODATA|NOPTR, $256

// Forward (Cooley–Tukey) butterfly in [0, 4q): a is corrected below 2q,
// then (a, b) ← (a + v, a + 2q − v) with v = b·w lazily.
#define FWD(a, b, w, ws, wsh) \
	VPSUBQ Z31, a, Z8; \
	VPMINUQ Z8, a, a; \
	MUL(b, w, ws, wsh, Z8); \
	VPADDQ Z31, a, b; \
	VPSUBQ Z8, b, b; \
	VPADDQ Z8, a, a

// Inverse (Gentleman–Sande) butterfly in [0, 2q):
// (a, b) ← (a + b corrected below 2q, (a + 2q − b)·w lazily).
#define INV(a, b, w, ws, wsh) \
	VPADDQ Z31, a, Z8; \
	VPSUBQ b, Z8, Z8; \
	VPADDQ b, a, a; \
	VPSUBQ Z31, a, Z9; \
	VPMINUQ Z9, a, a; \
	MUL(Z8, w, ws, wsh, b)

// The inverse's last stage with N^-1 folded in, fully reduced:
// (a, b) ← ((a + b)·N^-1, (a + 2q − b)·N^-1·psiInv[1]) by exact products.
#define FOLD(a, b) \
	VPADDQ Z31, a, Z8; \
	VPSUBQ b, Z8, Z8; \
	VPADDQ b, a, a; \
	MUL(Z8, NINVW, NINVWS, NINVWH, b); \
	VPSUBQ Z28, b, Z9; \
	VPMINUQ Z9, b, b; \
	MUL(a, NINV, NINVS, NINVH, Z8); \
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
	FWD(Z0, Z4, W1, S1, H1); \
	FWD(Z1, Z5, W1, S1, H1); \
	FWD(Z2, Z6, W1, S1, H1); \
	FWD(Z3, Z7, W1, S1, H1); \
	FWD(Z0, Z2, W2, S2, H2); \
	FWD(Z1, Z3, W2, S2, H2); \
	FWD(Z4, Z6, W3, S3, H3); \
	FWD(Z5, Z7, W3, S3, H3); \
	FWD(Z0, Z1, W4, S4, H4); \
	FWD(Z2, Z3, W5, S5, H5); \
	FWD(Z4, Z5, W6, S6, H6); \
	FWD(Z6, Z7, W7, S7, H7)

// The first two stages of a radix-8 inverse block, as in invPass8.
#define INV8HEAD \
	INV(Z0, Z1, W4, S4, H4); \
	INV(Z2, Z3, W5, S5, H5); \
	INV(Z4, Z5, W6, S6, H6); \
	INV(Z6, Z7, W7, S7, H7); \
	INV(Z0, Z2, W2, S2, H2); \
	INV(Z1, Z3, W2, S2, H2); \
	INV(Z4, Z6, W3, S3, H3); \
	INV(Z5, Z7, W3, S3, H3)

#define INV8 \
	INV8HEAD; \
	INV(Z0, Z4, W1, S1, H1); \
	INV(Z1, Z5, W1, S1, H1); \
	INV(Z2, Z6, W1, S1, H1); \
	INV(Z3, Z7, W1, S1, H1)

// Strided passes: R8 / R9 = psi / its Shoup factors, R10 = 8·i for the
// segment's i. Each twiddle is broadcast to all eight lanes.
#define BCAST1 \
	TWB((R8)(R10*1), (R9)(R10*1), W1, S1, H1)

#define BCAST2 \
	TWB((R8)(R10*2), (R9)(R10*2), W2, S2, H2); \
	TWB(8(R8)(R10*2), 8(R9)(R10*2), W3, S3, H3)

#define BCAST4 \
	TWB((R8)(R10*4), (R9)(R10*4), W4, S4, H4); \
	TWB(8(R8)(R10*4), 8(R9)(R10*4), W5, S5, H5); \
	TWB(16(R8)(R10*4), 16(R9)(R10*4), W6, S6, H6); \
	TWB(24(R8)(R10*4), 24(R9)(R10*4), W7, S7, H7)

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

#define IDX \
	MOVQ $gatherIdx<>(SB), DX; \
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

// The pass loops. Each runs after its TEXT prologue has loaded the
// arguments: DI (BX for the fold) = a, R8 = psi, R9 = sh, AX = q, and the
// pass's counts as named below.

// One non-final forward pass of κ = CX ∈ {1, 2, 3} stages over R13 = m0
// segments at a stride SI ≥ 8 (fwdPass8 / fwdPass4 / fwdPass2).
#define FWD_PASS \
	CONSTS; \
	MOVQ R13, R10; \
	SHLQ $3, R10; \
	SHLQ $3, SI; \
	LEAQ (SI)(SI*2), R11; \
	CMPQ CX, $2; \
	JEQ  fwd4; \
	JLT  fwd2; \
fwd8: \
	BCAST1; \
	BCAST2; \
	BCAST4; \
	MOVQ DI, BX; \
	LEAQ (DI)(SI*4), R12; \
	MOVQ SI, CX; \
fwd8col: \
	LOAD8; \
	FWD8; \
	STORE8; \
	ADDQ $64, BX; \
	ADDQ $64, R12; \
	SUBQ $64, CX; \
	JNZ  fwd8col; \
	LEAQ (DI)(SI*8), DI; \
	ADDQ $8, R10; \
	DECQ R13; \
	JNZ  fwd8; \
	VZEROUPPER; \
	RET; \
fwd4: \
	BCAST1; \
	BCAST2; \
	MOVQ DI, BX; \
	MOVQ SI, CX; \
fwd4col: \
	LOAD4; \
	FWD(Z0, Z2, W1, S1, H1); \
	FWD(Z1, Z3, W1, S1, H1); \
	FWD(Z0, Z1, W2, S2, H2); \
	FWD(Z2, Z3, W3, S3, H3); \
	STORE4; \
	ADDQ $64, BX; \
	SUBQ $64, CX; \
	JNZ  fwd4col; \
	LEAQ (DI)(SI*4), DI; \
	ADDQ $8, R10; \
	DECQ R13; \
	JNZ  fwd4; \
	VZEROUPPER; \
	RET; \
fwd2: \
	BCAST1; \
	MOVQ DI, BX; \
	MOVQ SI, CX; \
fwd2col: \
	LOAD2; \
	FWD(Z0, Z1, W1, S1, H1); \
	STORE2; \
	ADDQ $64, BX; \
	SUBQ $64, CX; \
	JNZ  fwd2col; \
	LEAQ (DI)(SI*2), DI; \
	ADDQ $8, R10; \
	DECQ R13; \
	JNZ  fwd2; \
	VZEROUPPER; \
	RET

// The final forward radix-8 pass (stride 1, fwdPass8Last): CX = m0
// contiguous blocks, eight at a time, each output fully reduced.
#define FWD8LAST_PASS \
	CONSTS; \
	IDX; \
	MOVQ CX, R10; \
	SHLQ $3, R10; \
	SHRQ $3, CX; \
fwdlast: \
	LOADT; \
	GATHER8; \
	FWD8; \
	REDUCE(Z0); \
	REDUCE(Z1); \
	REDUCE(Z2); \
	REDUCE(Z3); \
	REDUCE(Z4); \
	REDUCE(Z5); \
	REDUCE(Z6); \
	REDUCE(Z7); \
	STORET; \
	ADDQ $512, DI; \
	ADDQ $64, R10; \
	DECQ CX; \
	JNZ  fwdlast; \
	VZEROUPPER; \
	RET

// The first inverse radix-8 pass (stride 1, invPass8First): CX = segs
// contiguous blocks, eight at a time.
#define INV8FIRST_PASS \
	CONSTS; \
	IDX; \
	MOVQ CX, R10; \
	SHLQ $3, R10; \
	SHRQ $3, CX; \
invfirst: \
	LOADT; \
	GATHER8; \
	INV8; \
	STORET; \
	ADDQ $512, DI; \
	ADDQ $64, R10; \
	DECQ CX; \
	JNZ  invfirst; \
	VZEROUPPER; \
	RET

// A middle inverse radix-8 pass over R13 = segs segments at a stride
// SI ≥ 8 (invPass8).
#define INV8_PASS \
	CONSTS; \
	MOVQ R13, R10; \
	SHLQ $3, R10; \
	SHLQ $3, SI; \
	LEAQ (SI)(SI*2), R11; \
inv8: \
	BCAST1; \
	BCAST2; \
	BCAST4; \
	MOVQ DI, BX; \
	LEAQ (DI)(SI*4), R12; \
	MOVQ SI, CX; \
inv8col: \
	LOAD8; \
	INV8; \
	STORE8; \
	ADDQ $64, BX; \
	ADDQ $64, R12; \
	SUBQ $64, CX; \
	JNZ  inv8col; \
	LEAQ (DI)(SI*8), DI; \
	ADDQ $8, R10; \
	DECQ R13; \
	JNZ  inv8; \
	VZEROUPPER; \
	RET

// The final inverse pass of κ = R13 ∈ {1, 2, 3} stages — one segment of
// stride SI whose last stage folds N^-1 (invPass8Fold / invPass4Fold /
// invPass2Fold). The prologue has placed the fold constants.
#define INVFOLD_PASS \
	CONSTS; \
	MOVQ $8, R10; \
	SHLQ $3, SI; \
	LEAQ (SI)(SI*2), R11; \
	MOVQ SI, CX; \
	CMPQ R13, $2; \
	JEQ  fold4; \
	JLT  fold2; \
	BCAST2; \
	BCAST4; \
	LEAQ (BX)(SI*4), R12; \
fold8: \
	LOAD8; \
	INV8HEAD; \
	FOLD(Z0, Z4); \
	FOLD(Z1, Z5); \
	FOLD(Z2, Z6); \
	FOLD(Z3, Z7); \
	STORE8; \
	ADDQ $64, BX; \
	ADDQ $64, R12; \
	SUBQ $64, CX; \
	JNZ  fold8; \
	VZEROUPPER; \
	RET; \
fold4: \
	BCAST2; \
fold4col: \
	LOAD4; \
	INV(Z0, Z1, W2, S2, H2); \
	INV(Z2, Z3, W3, S3, H3); \
	FOLD(Z0, Z2); \
	FOLD(Z1, Z3); \
	STORE4; \
	ADDQ $64, BX; \
	SUBQ $64, CX; \
	JNZ  fold4col; \
	VZEROUPPER; \
	RET; \
fold2: \
	LOAD2; \
	FOLD(Z0, Z1); \
	STORE2; \
	ADDQ $64, BX; \
	SUBQ $64, CX; \
	JNZ  fold2; \
	VZEROUPPER; \
	RET
