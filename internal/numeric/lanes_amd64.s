//go:build !purego

// IFMA52 and AVX-512 DQ bodies of the keyswitch inner product and of the
// RNS conversion's emit step (the DQ ones below the IFMA52 ones), eight
// coefficients a ZMM register, and the CPU probe every vector body is
// selected by. The IFMA52 inner product's callers guarantee q < 2^50
// and residue inputs, so every multiplier input fits the 52-bit multiplier,
// and a run no longer than laneRunLength(q), so neither accumulator half
// overflows and the close's first result stays below 2^52; the
// conversion's caller checks each body's budget for its terms
// (ConvertBody). DESIGN.md §12 "Lanes" has the derivations.
//
// Register plan of the IFMA52 inner product:
//   Z0, Z1   L0, H0: out0's split accumulator, the sum being L0 + H0·2^52
//   Z2, Z3   L1, H1: out1's
//   Z4       the digit's x (loaded, or gathered through perm)
//   Z5, Z6   the digit's k0 and k1
//   Z7       the block's perm entries
//   Z8, Z9   close scratch
//   Z28 = n, Z29 = 2^104 mod q, Z30 = q^-1 mod 2^52, Z31 = q
//   K1       perm entries ≥ n, K2 the gather mask, K3 = add ? all : none

#include "go_asm.h"
#include "textflag.h"

// One digit's products onto both accumulators: R12 = 24·d indexes the row
// headers, AX = 8·j the block.
#define MAC \
	MOVQ (R9)(R12*1), BX; \
	VMOVDQU64 (BX)(AX*1), Z5; \
	MOVQ (R10)(R12*1), DX; \
	VMOVDQU64 (DX)(AX*1), Z6; \
	VPMADD52LUQ Z5, Z4, Z0; \
	VPMADD52HUQ Z5, Z4, Z1; \
	VPMADD52LUQ Z6, Z4, Z2; \
	VPMADD52HUQ Z6, Z4, Z3

// L + H·2^52 → its residue in [0, q), left in L. First REDC: with
// m = L·q^-1 mod 2^52, L − m·q is (⌊L/2^52⌋ − ⌊m·q/2^52⌋)·2^52 exactly, so
// A = H + ⌊L/2^52⌋ + q − ⌊m·q/2^52⌋ ≡ (L + H·2^52)·2^-52, in [1, 2^52).
// Second REDC of A·Z29 — A·(2^104 mod q) ≡ (L + H·2^52)·2^52 for the inner
// product, A·2^40 ≡ (L + H·2^52)·2^-12 for the conversion, whose sum
// carries a factor 2^64 to take out: the same steps give
// P_hi + q − ⌊m'·q/2^52⌋ in [1, 2q), and one correction lands it in [0, q).
#define CLOSE(L, H) \
	VPXORQ Z8, Z8, Z8; \
	VPMADD52LUQ Z30, L, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPMADD52HUQ Z31, Z8, Z9; \
	VPSRLQ $52, L, L; \
	VPADDQ L, H, H; \
	VPADDQ Z31, H, H; \
	VPSUBQ Z9, H, H; \
	VPXORQ Z8, Z8, Z8; \
	VPMADD52LUQ Z29, H, Z8; \
	VPXORQ L, L, L; \
	VPMADD52HUQ Z29, H, L; \
	VPXORQ Z9, Z9, Z9; \
	VPMADD52LUQ Z30, Z8, Z9; \
	VPXORQ H, H, H; \
	VPMADD52HUQ Z31, Z9, H; \
	VPADDQ Z31, L, L; \
	VPSUBQ H, L, L; \
	VPSUBQ Z31, L, Z8; \
	VPMINUQ Z8, L, L

// One conversion term, y·w for two groups of eight: Z4 and Z6 hold y,
// Z5 the broadcast w.
#define TERM2 \
	VPMADD52LUQ Z5, Z4, Z0; \
	VPMADD52HUQ Z5, Z4, Z1; \
	VPMADD52LUQ Z5, Z6, Z2; \
	VPMADD52HUQ Z5, Z6, Z3

// Open a block: the accumulators start at out (add) or zero.
#define OPEN \
	VMOVDQU64.Z (DI)(AX*1), K3, Z0; \
	VMOVDQU64.Z (SI)(AX*1), K3, Z2; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z3, Z3, Z3; \
	XORQ R12, R12

// Close a block into out0 / out1 and step to the next.
#define SHUT \
	CLOSE(Z0, Z1); \
	CLOSE(Z2, Z3); \
	VMOVDQU64 Z0, (DI)(AX*1); \
	VMOVDQU64 Z2, (SI)(AX*1); \
	ADDQ $64, AX

// func innerProductPairLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, qInv, r2 uint64) bool
TEXT ·innerProductPairLanes(SB), NOSPLIT, $0-177
	MOVQ out0_base+0(FP), DI
	MOVQ out0_len+8(FP), CX
	MOVQ out1_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R13
	MOVQ k0_base+72(FP), R9
	MOVQ k1_base+96(FP), R10
	MOVQ perm_base+120(FP), R11
	VPBROADCASTQ CX, Z28
	MOVQ q+152(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ qInv+160(FP), AX
	VPBROADCASTQ AX, Z30
	MOVQ r2+168(FP), AX
	VPBROADCASTQ AX, Z29
	KXORW K3, K3, K3
	MOVBQZX add+144(FP), AX
	TESTQ AX, AX
	JZ    start
	KXNORW K3, K3, K3

start:
	LEAQ (R13)(R13*2), R13
	SHLQ $3, R13
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ R11, R11
	JNZ   gathered

inorder:
	OPEN

inorderdigit:
	MOVQ (R8)(R12*1), BX
	VMOVDQU64 (BX)(AX*1), Z4
	MAC
	ADDQ $24, R12
	CMPQ R12, R13
	JNE  inorderdigit
	SHUT
	CMPQ AX, CX
	JNE  inorder
	JMP  done

gathered:
	VMOVDQU64 (R11)(AX*1), Z7
	VPCMPUQ $5, Z28, Z7, K1
	KORTESTW K1, K1
	JNZ  bad
	OPEN

gathereddigit:
	MOVQ (R8)(R12*1), BX
	KXNORW K2, K2, K2
	VPGATHERQQ (BX)(Z7*8), K2, Z4
	MAC
	ADDQ $24, R12
	CMPQ R12, R13
	JNE  gathereddigit
	SHUT
	CMPQ AX, CX
	JNE  gathered

done:
	VZEROUPPER
	MOVB $1, ret+176(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+176(FP)
	RET

// The AVX-512 DQ body of the inner product, for any odd q < 2^61 (DESIGN.md
// §12 "Lanes"): 64-bit words, eight coefficients a ZMM register. Each
// product x·k is formed from four VPMULUDQ partial products of its 32-bit
// halves, ll + (lh + hl)·2^32 + hh·2^64, and summed unreduced into three
// accumulators: A0 takes ll modulo 2^64 and every wrap of it adds one to
// A2, A1 takes lh + hl, A2 takes hh. A run of at most dqRunLength(q)
// digits keeps A1 from wrapping and the whole sum V = A0 + A1·2^32 +
// A2·2^64 below 2^(64+s), s = bits(q) − 1, so the close is one Barrett
// reduction: V1 = ⌊V/2^s⌋ fits a word, t = ⌊V1·μ/2^64⌋ with
// μ = ⌊2^(64+s)/q⌋ is at most two short of ⌊V/q⌋, and V − t·q, taken
// modulo 2^64, is below 3q; two conditional subtractions leave the
// canonical residue.
//
// Register plan of the DQ inner product:
//   Z0, Z1, Z2   A0, A1, A2 of out0;  Z3, Z4, Z5  of out1
//   Z6, Z7       the digit's x (loaded, or gathered through perm) and x >> 32
//   Z8           the block's perm entries
//   Z9–Z18       product temporaries, then close scratch
//   Z19–Z23      close scratch
//   Z24 = 64 − s, Z25 = s, Z27 = 1, Z28 = n, Z29 = μ >> 32, Z30 = μ, Z31 = q
//   K1           perm entries ≥ n, K2 the gather mask, K3 = add ? all : none
//   K4, K5       wraps of A0 (out0, out1), K6 = the low dword of each word

// One digit's products onto the six accumulators: R12 = 24·d indexes the
// row headers, AX = 8·j the block; Z6 and Z7 hold x and x >> 32.
#define DQMAC \
	MOVQ (R9)(R12*1), BX; \
	MOVQ (R10)(R12*1), DX; \
	VPSRLQ $32, (BX)(AX*1), Z9; \
	VPSRLQ $32, (DX)(AX*1), Z14; \
	VPMULUDQ (BX)(AX*1), Z6, Z10; \
	VPMULUDQ (DX)(AX*1), Z6, Z15; \
	VPMULUDQ (BX)(AX*1), Z7, Z11; \
	VPMULUDQ (DX)(AX*1), Z7, Z16; \
	VPMULUDQ Z9, Z6, Z12; \
	VPMULUDQ Z14, Z6, Z17; \
	VPMULUDQ Z9, Z7, Z13; \
	VPMULUDQ Z14, Z7, Z18; \
	VPADDQ Z10, Z0, Z0; \
	VPADDQ Z15, Z3, Z3; \
	VPCMPUQ $1, Z10, Z0, K4; \
	VPCMPUQ $1, Z15, Z3, K5; \
	VPADDQ Z12, Z11, Z11; \
	VPADDQ Z17, Z16, Z16; \
	VPADDQ Z11, Z1, Z1; \
	VPADDQ Z16, Z4, Z4; \
	VPADDQ Z13, Z2, Z2; \
	VPADDQ Z18, Z5, Z5; \
	VPADDQ Z27, Z2, K4, Z2; \
	VPADDQ Z27, Z5, K5, Z5

// A0 + A1·2^32 + A2·2^64 → its residue in [0, q), left in A0; T0–T3 and
// K are scratch. lo = A0 + A1·2^32 modulo 2^64 and hi = A2 + ⌊A1/2^32⌋ +
// the carry are the sum's two words; V1 = hi·2^(64−s) + ⌊lo/2^s⌋, and
// t = ⌊V1·μ/2^64⌋ from four 32 × 32 partial products as dq_amd64.s's MUL
// forms it: V1 = vh·2^32 + vl, μ = mh·2^32 + ml,
//   m1 = vh·ml + ⌊vl·ml/2^32⌋,  m2 = vl·mh + (m1 mod 2^32),
//   t = vh·mh + ⌊m1/2^32⌋ + ⌊m2/2^32⌋.
#define DQCLOSE(A0, A1, A2, T0, T1, T2, T3, K) \
	VPSLLQ $32, A1, T0; \
	VPADDQ A0, T0, T0; \
	VPCMPUQ $1, A0, T0, K; \
	VPSRLQ $32, A1, A1; \
	VPADDQ A1, A2, A2; \
	VPADDQ Z27, A2, K, A2; \
	VPSLLVQ Z24, A2, A2; \
	VPSRLVQ Z25, T0, T1; \
	VPORQ T1, A2, A2; \
	VPSRLQ $32, A2, T1; \
	VPMULUDQ Z30, A2, T2; \
	VPSRLQ $32, T2, T2; \
	VPMULUDQ Z30, T1, T3; \
	VPADDQ T2, T3, T3; \
	VMOVDQU32.Z T3, K6, T2; \
	VPSRLQ $32, T3, T3; \
	VPMULUDQ Z29, A2, A1; \
	VPADDQ T2, A1, A1; \
	VPSRLQ $32, A1, A1; \
	VPMULUDQ Z29, T1, T1; \
	VPADDQ T3, T1, T1; \
	VPADDQ A1, T1, T1; \
	VPMULLQ Z31, T1, T1; \
	VPSUBQ T1, T0, A0; \
	VPSUBQ Z31, A0, T1; \
	VPMINUQ T1, A0, A0; \
	VPSUBQ Z31, A0, T1; \
	VPMINUQ T1, A0, A0

// Open a block: A0 starts at out (add) or zero, A1 and A2 at zero.
#define DQOPEN \
	VMOVDQU64.Z (DI)(AX*1), K3, Z0; \
	VMOVDQU64.Z (SI)(AX*1), K3, Z3; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	XORQ R12, R12

// Close a block into out0 / out1 and step to the next.
#define DQSHUT \
	DQCLOSE(Z0, Z1, Z2, Z19, Z20, Z21, Z22, K4); \
	DQCLOSE(Z3, Z4, Z5, Z9, Z10, Z11, Z12, K5); \
	VMOVDQU64 Z0, (DI)(AX*1); \
	VMOVDQU64 Z3, (SI)(AX*1); \
	ADDQ $64, AX

// func innerProductPairDQ(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, mu, s uint64) bool
TEXT ·innerProductPairDQ(SB), NOSPLIT, $0-177
	MOVQ out0_base+0(FP), DI
	MOVQ out0_len+8(FP), CX
	MOVQ out1_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R13
	MOVQ k0_base+72(FP), R9
	MOVQ k1_base+96(FP), R10
	MOVQ perm_base+120(FP), R11
	VPBROADCASTQ CX, Z28
	MOVQ q+152(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ mu+160(FP), AX
	VPBROADCASTQ AX, Z30
	SHRQ $32, AX
	VPBROADCASTQ AX, Z29
	MOVQ s+168(FP), AX
	VPBROADCASTQ AX, Z25
	NEGQ AX
	ADDQ $64, AX
	VPBROADCASTQ AX, Z24
	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	MOVQ $0x5555, AX
	KMOVW AX, K6
	KXORW K3, K3, K3
	MOVBQZX add+144(FP), AX
	TESTQ AX, AX
	JZ    dqstart
	KXNORW K3, K3, K3

dqstart:
	LEAQ (R13)(R13*2), R13
	SHLQ $3, R13
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ R11, R11
	JNZ   dqgathered

dqinorder:
	DQOPEN

dqinorderdigit:
	MOVQ (R8)(R12*1), BX
	VMOVDQU64 (BX)(AX*1), Z6
	VPSRLQ $32, Z6, Z7
	DQMAC
	ADDQ $24, R12
	CMPQ R12, R13
	JNE  dqinorderdigit
	DQSHUT
	CMPQ AX, CX
	JNE  dqinorder
	JMP  dqdone

dqgathered:
	VMOVDQU64 (R11)(AX*1), Z8
	VPCMPUQ $5, Z28, Z8, K1
	KORTESTW K1, K1
	JNZ  dqbad
	DQOPEN

dqgathereddigit:
	MOVQ (R8)(R12*1), BX
	KXNORW K2, K2, K2
	VPGATHERQQ (BX)(Z8*8), K2, Z6
	VPSRLQ $32, Z6, Z7
	DQMAC
	ADDQ $24, R12
	CMPQ R12, R13
	JNE  dqgathereddigit
	DQSHUT
	CMPQ AX, CX
	JNE  dqgathered

dqdone:
	VZEROUPPER
	MOVB $1, ret+176(FP)
	RET

dqbad:
	VZEROUPPER
	MOVB $0, ret+176(FP)
	RET

// func convertLanes(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int)
//
// The RNS conversion's emit step on the lanes, one destination row after
// another, sixteen coefficients a step (two independent chains; a last
// group of eight alone): the split accumulator opens with
// k·nb, adds each staged row y_j times the broadcast table entry w_j (and
// the seed row times w_cols), and closes as CLOSE does, with 2^40 as the
// second constant — the tables carry 2^64, so the result is the sum times
// 2^-64, the Go body's REDC. 2^40 need not be reduced mod q: within the
// budget A < (T+1)·q, so P_hi = ⌊A/2^12⌋ < q for T < 4096 terms, which is
// all the second REDC asks. ConvertLanes has checked every row and the
// caller the budget (ConvertBody).
//
// Register plan:
//   BX       destination r;  DI  out[r] + t0;  R10  seed[r] + t0, or 0
//   R11, R12 w[r] and w[r] + cols;  R8, R9  the term's y and w pointers
//   AX       8·t within the block;  CX  8·n;  SI  8·stride
//   R13, R14 ys and k
//   Z0, Z1   L, H of the first group;  Z2, Z3  of the second
//   Z4, Z6   the term's y (k when opening);  Z5  the broadcast w
//   Z8, Z9   close scratch;  DX  the pair test
//   Z28 = nb[r], Z29 = 2^40, Z30 = q^-1 mod 2^52, Z31 = q
TEXT ·convertLanes(SB), NOSPLIT, $0-200
	MOVQ ys_base+120(FP), R13
	MOVQ k_base+144(FP), R14
	MOVQ n+176(FP), CX
	SHLQ $3, CX
	MOVQ stride+184(FP), SI
	SHLQ $3, SI
	MOVQ $0x10000000000, AX
	VPBROADCASTQ AX, Z29
	XORQ BX, BX

dest:
	MOVQ mods_base+48(FP), R8
	IMUL3Q $Modulus__size, BX, R9
	ADDQ R9, R8
	MOVQ Modulus_Q(R8), R9
	VPBROADCASTQ R9, Z31
	MOVQ Modulus_QInv(R8), AX
	MOVQ $0xfffffffffffff, DX
	ANDQ DX, AX
	VPBROADCASTQ AX, Z30
	MOVQ nb_base+96(FP), R8
	VPBROADCASTQ (R8)(BX*8), Z28
	LEAQ (BX)(BX*2), R9
	MOVQ t0+168(FP), AX
	MOVQ out_base+0(FP), R8
	MOVQ (R8)(R9*8), DI
	LEAQ (DI)(AX*8), DI
	MOVQ seed_base+24(FP), R10
	TESTQ R10, R10
	JZ   rows
	MOVQ (R10)(R9*8), R10
	LEAQ (R10)(AX*8), R10

rows:
	MOVQ w_base+72(FP), R8
	MOVQ (R8)(R9*8), R11
	MOVQ cols+192(FP), R12
	LEAQ (R11)(R12*8), R12
	XORQ AX, AX

pair:
	LEAQ 64(AX), DX
	CMPQ DX, CX
	JEQ  single
	VMOVDQU64 (R14)(AX*1), Z4
	VMOVDQU64 64(R14)(AX*1), Z6
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPMADD52LUQ Z28, Z4, Z0
	VPMADD52HUQ Z28, Z4, Z1
	VPMADD52LUQ Z28, Z6, Z2
	VPMADD52HUQ Z28, Z6, Z3
	LEAQ (R13)(AX*1), R8
	MOVQ R11, R9

pairterm:
	VPBROADCASTQ (R9), Z5
	VMOVDQU64 (R8), Z4
	VMOVDQU64 64(R8), Z6
	TERM2
	ADDQ SI, R8
	ADDQ $8, R9
	CMPQ R9, R12
	JNE  pairterm
	TESTQ R10, R10
	JZ   pairclose
	VPBROADCASTQ (R12), Z5
	VMOVDQU64 (R10)(AX*1), Z4
	VMOVDQU64 64(R10)(AX*1), Z6
	TERM2

pairclose:
	CLOSE(Z0, Z1)
	CLOSE(Z2, Z3)
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z2, 64(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, CX
	JNE  pair
	JMP  next

single:
	VMOVDQU64 (R14)(AX*1), Z4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPMADD52LUQ Z28, Z4, Z0
	VPMADD52HUQ Z28, Z4, Z1
	LEAQ (R13)(AX*1), R8
	MOVQ R11, R9

singleterm:
	VPBROADCASTQ (R9), Z5
	VMOVDQU64 (R8), Z4
	VPMADD52LUQ Z5, Z4, Z0
	VPMADD52HUQ Z5, Z4, Z1
	ADDQ SI, R8
	ADDQ $8, R9
	CMPQ R9, R12
	JNE  singleterm
	TESTQ R10, R10
	JZ   singleclose
	VPBROADCASTQ (R12), Z5
	VMOVDQU64 (R10)(AX*1), Z4
	VPMADD52LUQ Z5, Z4, Z0
	VPMADD52HUQ Z5, Z4, Z1

singleclose:
	CLOSE(Z0, Z1)
	VMOVDQU64 Z0, (DI)(AX*1)

next:
	INCQ BX
	CMPQ BX, out_len+8(FP)
	JNE  dest
	VZEROUPPER
	RET

// The AVX-512 DQ body of the conversion's emit step, for every destination
// whose sum the IFMA52 budget refuses (DESIGN.md §12 "Lanes for the RNS
// conversion"): 64-bit words, eight coefficients a register, one
// destination row after another, sixteen coefficients a step (two
// independent chains; a last group of eight alone). Each term y·w is
// formed as DQMAC forms x·k, from four VPMULUDQ partial products of the
// 32-bit halves of y and of the broadcast w, and summed unreduced into
// A0 / A1 / A2, the sum being V = A0 + A1·2^32 + A2·2^64. A staged row's
// high halves are one more load, four bytes on — VPMULUDQ reads the low
// dword of each word, which there is y's high dword — so ConvertLanes
// checks one word of ys past the last row; the seed row, read in place,
// is shifted instead. The k row opens the sum: k ≤ the source count
// < 2^32, so k·nb is two partial products, k·nbl into A0 and k·nbh into A1.
// The close is the Go body's REDC by 2^64 as two Montgomery steps of 2^32
// (CVCLOSE), and the tables carry 2^64, so the word is the canonical
// residue of the sum times 2^-64, the Go body's. ConvertLanes has checked
// every row and the caller the budget (ConvertBody: V < c·2^64, A1 < 2^63).
//
// Register plan:
//   BX       destination r;  DI  out[r] + t0;  R10  seed[r] + t0, or 0
//   R11, R12 w[r] and w[r] + cols;  R8, R9  the term's y and w pointers
//   AX       8·t within the block;  CX  8·n;  SI  8·stride
//   R13, R14 ys and k;  DX  the pair test
//   Z0–Z2    A0, A1, A2 of the first group;  Z3–Z5  of the second
//   Z6, Z7   the broadcast w's low and high halves (the low dword of each word)
//   Z8–Z13   the first group's y, y's high halves and partial products, then
//            close scratch;  Z14–Z19  the second group's
//   Z25 = 2^32, Z26 = c >> 32, Z27 = 1, Z28 = nb[r], Z29 = nb[r] >> 32,
//   Z30 = −c^-1 (its low dword is −c^-1 mod 2^32), Z31 = c
//   K1, K2   the two groups' carries

// One term onto one group's accumulators: Y holds y, YH y's high halves in
// the low dwords. A0 takes ll modulo 2^64 and each wrap adds one to A2, A1
// takes lh + hl, A2 takes hh.
#define CVTERM(Y, YH, LL, LH, HL, HH, A0, A1, A2, K) \
	VPMULUDQ Z6, Y, LL; \
	VPMULUDQ Z7, Y, LH; \
	VPMULUDQ Z6, YH, HL; \
	VPMULUDQ Z7, YH, HH; \
	VPADDQ LL, A0, A0; \
	VPCMPUQ $1, LL, A0, K; \
	VPADDQ LH, A1, A1; \
	VPADDQ HL, A1, A1; \
	VPADDQ HH, A2, A2; \
	VPADDQ Z27, A2, K, A2

// Open one group's accumulators at k·nb: KV holds k.
#define CVOPEN(KV, A0, A1, A2) \
	VPMULUDQ Z28, KV, A0; \
	VPMULUDQ Z29, KV, A1; \
	VPXORQ A2, A2, A2

// V = A0 + A1·2^32 + A2·2^64 → V·2^-64 mod c, canonical, left in A0; T0,
// T1 and K are scratch. Step one: m = lo32(A0)·(−c^-1) mod 2^32 makes
// A0 + m·c ≡ 0 mod 2^32, and with c = ch·2^32 + cl
//
//	(V + m·c)/2^32 = ⌊(A0 + m·cl)/2^32⌋ + A1 + m·ch + A2·2^32 = B + A2·2^32,
//
// A0 + m·cl taken modulo 2^64 and its carry added back as 2^32; B < 2^64
// because A1 < 2^63. Step two does the same to B + A2·2^32, leaving
// ⌊(B + m'·cl)/2^32⌋ + A2 + m'·ch = (V + (m + m'·2^32)·c)/2^64, which is
// ≡ V·2^-64 and, as V < c·2^64, below 2c; one conditional subtraction.
#define CVCLOSE(A0, A1, A2, T0, T1, K) \
	VPMULUDQ Z30, A0, T0; \
	VPMULUDQ Z31, T0, T1; \
	VPMULUDQ Z26, T0, T0; \
	VPADDQ A0, T1, T1; \
	VPCMPUQ $1, A0, T1, K; \
	VPSRLQ $32, T1, T1; \
	VPADDQ A1, T0, T0; \
	VPADDQ Z25, T0, K, T0; \
	VPADDQ T1, T0, A1; \
	VPMULUDQ Z30, A1, T0; \
	VPMULUDQ Z31, T0, T1; \
	VPMULUDQ Z26, T0, T0; \
	VPADDQ A1, T1, T1; \
	VPCMPUQ $1, A1, T1, K; \
	VPSRLQ $32, T1, T1; \
	VPADDQ A2, T0, T0; \
	VPADDQ Z25, T0, K, T0; \
	VPADDQ T1, T0, A2; \
	VPSUBQ Z31, A2, T0; \
	VPMINUQ T0, A2, A0

// func convertDQ(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int)
TEXT ·convertDQ(SB), NOSPLIT, $0-200
	MOVQ ys_base+120(FP), R13
	MOVQ k_base+144(FP), R14
	MOVQ n+176(FP), CX
	SHLQ $3, CX
	MOVQ stride+184(FP), SI
	SHLQ $3, SI
	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z25
	XORQ BX, BX

cvdest:
	MOVQ mods_base+48(FP), R8
	IMUL3Q $Modulus__size, BX, R9
	ADDQ R9, R8
	MOVQ Modulus_Q(R8), R9
	VPBROADCASTQ R9, Z31
	SHRQ $32, R9
	VPBROADCASTQ R9, Z26
	MOVQ Modulus_QInv(R8), AX
	NEGQ AX
	VPBROADCASTQ AX, Z30
	MOVQ nb_base+96(FP), R8
	MOVQ (R8)(BX*8), AX
	VPBROADCASTQ AX, Z28
	SHRQ $32, AX
	VPBROADCASTQ AX, Z29
	LEAQ (BX)(BX*2), R9
	MOVQ t0+168(FP), AX
	MOVQ out_base+0(FP), R8
	MOVQ (R8)(R9*8), DI
	LEAQ (DI)(AX*8), DI
	MOVQ seed_base+24(FP), R10
	TESTQ R10, R10
	JZ   cvrows
	MOVQ (R10)(R9*8), R10
	LEAQ (R10)(AX*8), R10

cvrows:
	MOVQ w_base+72(FP), R8
	MOVQ (R8)(R9*8), R11
	MOVQ cols+192(FP), R12
	LEAQ (R11)(R12*8), R12
	XORQ AX, AX

cvpair:
	LEAQ 64(AX), DX
	CMPQ DX, CX
	JEQ  cvsingle
	VMOVDQU64 (R14)(AX*1), Z8
	VMOVDQU64 64(R14)(AX*1), Z14
	CVOPEN(Z8, Z0, Z1, Z2)
	CVOPEN(Z14, Z3, Z4, Z5)
	LEAQ (R13)(AX*1), R8
	MOVQ R11, R9

cvpairterm:
	VPBROADCASTQ (R9), Z6
	VPBROADCASTD 4(R9), Z7
	VMOVDQU64 (R8), Z8
	VMOVDQU64 4(R8), Z9
	VMOVDQU64 64(R8), Z14
	VMOVDQU64 68(R8), Z15
	CVTERM(Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, K1)
	CVTERM(Z14, Z15, Z16, Z17, Z18, Z19, Z3, Z4, Z5, K2)
	ADDQ SI, R8
	ADDQ $8, R9
	CMPQ R9, R12
	JNE  cvpairterm
	TESTQ R10, R10
	JZ   cvpairclose
	VPBROADCASTQ (R12), Z6
	VPBROADCASTD 4(R12), Z7
	VMOVDQU64 (R10)(AX*1), Z8
	VMOVDQU64 64(R10)(AX*1), Z14
	VPSRLQ $32, Z8, Z9
	VPSRLQ $32, Z14, Z15
	CVTERM(Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, K1)
	CVTERM(Z14, Z15, Z16, Z17, Z18, Z19, Z3, Z4, Z5, K2)

cvpairclose:
	CVCLOSE(Z0, Z1, Z2, Z8, Z9, K1)
	CVCLOSE(Z3, Z4, Z5, Z14, Z15, K2)
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z3, 64(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, CX
	JNE  cvpair
	JMP  cvnext

cvsingle:
	VMOVDQU64 (R14)(AX*1), Z8
	CVOPEN(Z8, Z0, Z1, Z2)
	LEAQ (R13)(AX*1), R8
	MOVQ R11, R9

cvsingleterm:
	VPBROADCASTQ (R9), Z6
	VPBROADCASTD 4(R9), Z7
	VMOVDQU64 (R8), Z8
	VMOVDQU64 4(R8), Z9
	CVTERM(Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, K1)
	ADDQ SI, R8
	ADDQ $8, R9
	CMPQ R9, R12
	JNE  cvsingleterm
	TESTQ R10, R10
	JZ   cvsingleclose
	VPBROADCASTQ (R12), Z6
	VPBROADCASTD 4(R12), Z7
	VMOVDQU64 (R10)(AX*1), Z8
	VPSRLQ $32, Z8, Z9
	CVTERM(Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, K1)

cvsingleclose:
	CVCLOSE(Z0, Z1, Z2, Z8, Z9, K1)
	VMOVDQU64 Z0, (DI)(AX*1)

cvnext:
	INCQ BX
	CMPQ BX, out_len+8(FP)
	JNE  cvdest
	VZEROUPPER
	RET

// The elementwise family, MM and MA: eight coefficients a register, one
// register-wide step a loop, every output the canonical residue the Go body
// writes (elementwise.go has the Go bodies and the shape gate, DESIGN.md
// §12 "Lanes for the elementwise family" the budgets). Every row is at
// least len(c) words, a nonzero multiple of 8, which the Go side checks;
// each step loads all its inputs before it stores, so an output may be any
// of its inputs.

// func tensorLanes(o0, o1, o2, a0, a1, b0, b1 []uint64, q, qInv, r2 uint64)
//
// The IFMA52 tensor: o0 = a0·b0, o1 = a0·b1 + a1·b0, o2 = a1·b1, each sum on
// its own split accumulator and closed by CLOSE with r2 = 2^104 mod q — two
// products, well inside laneRunLength's budget of twelve.
//
// Register plan: Z4, Z5 a0, a1;  Z6, Z7 b0, b1;  Z0/Z1, Z2/Z3, Z10/Z11 the
// three outputs' L/H;  Z8, Z9 close scratch;  Z29 = r2, Z30 = q^-1 mod
// 2^52, Z31 = q;  DI, SI, DX the outputs;  R8–R11 the inputs;  AX 8·j,
// CX 8·n.
TEXT ·tensorLanes(SB), NOSPLIT, $0-192
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	SHLQ $3, CX
	MOVQ o1_base+24(FP), SI
	MOVQ o2_base+48(FP), DX
	MOVQ a0_base+72(FP), R8
	MOVQ a1_base+96(FP), R9
	MOVQ b0_base+120(FP), R10
	MOVQ b1_base+144(FP), R11
	VPBROADCASTQ q+168(FP), Z31
	VPBROADCASTQ qInv+176(FP), Z30
	VPBROADCASTQ r2+184(FP), Z29
	XORQ AX, AX

tensorstep:
	VMOVDQU64 (R8)(AX*1), Z4
	VMOVDQU64 (R9)(AX*1), Z5
	VMOVDQU64 (R10)(AX*1), Z6
	VMOVDQU64 (R11)(AX*1), Z7
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPMADD52LUQ Z6, Z4, Z0
	VPMADD52HUQ Z6, Z4, Z1
	VPMADD52LUQ Z7, Z4, Z2
	VPMADD52HUQ Z7, Z4, Z3
	VPMADD52LUQ Z6, Z5, Z2
	VPMADD52HUQ Z6, Z5, Z3
	VPMADD52LUQ Z7, Z5, Z10
	VPMADD52HUQ Z7, Z5, Z11
	CLOSE(Z0, Z1)
	CLOSE(Z2, Z3)
	CLOSE(Z10, Z11)
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z2, (SI)(AX*1)
	VMOVDQU64 Z10, (DX)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  tensorstep
	VZEROUPPER
	RET

// func montMulLanes(c, a, b []uint64, q, qInv, r2 uint64)
//
// The IFMA52 product c = a·b, the tensor's one-product case; the register
// plan is the tensor's, with a in Z4 and b in Z6.
TEXT ·montMulLanes(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R10
	VPBROADCASTQ q+72(FP), Z31
	VPBROADCASTQ qInv+80(FP), Z30
	VPBROADCASTQ r2+88(FP), Z29
	XORQ AX, AX

mulstep:
	VMOVDQU64 (R8)(AX*1), Z4
	VMOVDQU64 (R10)(AX*1), Z6
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPMADD52LUQ Z6, Z4, Z0
	VPMADD52HUQ Z6, Z4, Z1
	CLOSE(Z0, Z1)
	VMOVDQU64 Z0, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  mulstep
	VZEROUPPER
	RET

// One DQ product x·y from its 32-bit halves (XH, YH hold x >> 32, y >> 32):
// A0 = xl·yl, A1 = xl·yh + xh·yl, A2 = xh·yh, so x·y = A0 + A1·2^32 +
// A2·2^64; T is scratch.
#define DQMUL(X, XH, Y, YH, A0, A1, A2, T) \
	VPMULUDQ Y, X, A0; \
	VPMULUDQ YH, X, A1; \
	VPMULUDQ Y, XH, T; \
	VPADDQ T, A1, A1; \
	VPMULUDQ YH, XH, A2

// One more DQ product onto A0 / A1 / A2, as DQMAC adds one: a wrap of A0
// adds one to A2 (Z27 = 1). T and K are scratch.
#define DQMULADD(X, XH, Y, YH, A0, A1, A2, T, K) \
	VPMULUDQ Y, X, T; \
	VPADDQ T, A0, A0; \
	VPCMPUQ $1, T, A0, K; \
	VPMULUDQ YH, X, T; \
	VPADDQ T, A1, A1; \
	VPMULUDQ Y, XH, T; \
	VPADDQ T, A1, A1; \
	VPMULUDQ YH, XH, T; \
	VPADDQ T, A2, A2; \
	VPADDQ Z27, A2, K, A2

// The DQ constants of DQCLOSE, from q in R12, μ in R13 and s in R14.
#define DQCONSTS \
	VPBROADCASTQ R12, Z31; \
	VPBROADCASTQ R13, Z30; \
	SHRQ $32, R13; \
	VPBROADCASTQ R13, Z29; \
	VPBROADCASTQ R14, Z25; \
	NEGQ R14; \
	ADDQ $64, R14; \
	VPBROADCASTQ R14, Z24; \
	MOVQ $1, R12; \
	VPBROADCASTQ R12, Z27; \
	MOVQ $0x5555, R12; \
	KMOVW R12, K6

// func tensorDQ(o0, o1, o2, a0, a1, b0, b1 []uint64, q, mu, s uint64)
//
// The DQ tensor: each output's products summed unreduced into A0 / A1 / A2
// and closed by DQCLOSE, the MAC's Barrett reduction — two products, inside
// dqRunLength's budget of three at 61 bits.
//
// Register plan: Z0–Z3 a0, a0 >> 32, a1, a1 >> 32;  Z4–Z7 b0, b0 >> 32, b1,
// b1 >> 32;  Z8–Z10, Z11–Z13, Z14–Z16 the three outputs' A0 / A1 / A2;
// Z17 product scratch;  Z18–Z23 close scratch;  DQCLOSE's constants in
// Z24, Z25, Z27, Z29–Z31 and K6;  K1–K3 carries.
TEXT ·tensorDQ(SB), NOSPLIT, $0-192
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	SHLQ $3, CX
	MOVQ o1_base+24(FP), SI
	MOVQ o2_base+48(FP), DX
	MOVQ a0_base+72(FP), R8
	MOVQ a1_base+96(FP), R9
	MOVQ b0_base+120(FP), R10
	MOVQ b1_base+144(FP), R11
	MOVQ q+168(FP), R12
	MOVQ mu+176(FP), R13
	MOVQ s+184(FP), R14
	DQCONSTS
	XORQ AX, AX

tensordqstep:
	VMOVDQU64 (R8)(AX*1), Z0
	VMOVDQU64 (R9)(AX*1), Z2
	VMOVDQU64 (R10)(AX*1), Z4
	VMOVDQU64 (R11)(AX*1), Z6
	VPSRLQ $32, Z0, Z1
	VPSRLQ $32, Z2, Z3
	VPSRLQ $32, Z4, Z5
	VPSRLQ $32, Z6, Z7
	DQMUL(Z0, Z1, Z4, Z5, Z8, Z9, Z10, Z17)
	DQMUL(Z0, Z1, Z6, Z7, Z11, Z12, Z13, Z17)
	DQMULADD(Z2, Z3, Z4, Z5, Z11, Z12, Z13, Z17, K1)
	DQMUL(Z2, Z3, Z6, Z7, Z14, Z15, Z16, Z17)
	DQCLOSE(Z8, Z9, Z10, Z18, Z19, Z20, Z21, K1)
	DQCLOSE(Z11, Z12, Z13, Z22, Z23, Z17, Z0, K2)
	DQCLOSE(Z14, Z15, Z16, Z1, Z2, Z3, Z4, K3)
	VMOVDQU64 Z8, (DI)(AX*1)
	VMOVDQU64 Z11, (SI)(AX*1)
	VMOVDQU64 Z14, (DX)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  tensordqstep
	VZEROUPPER
	RET

// func montMulDQ(c, a, b []uint64, q, mu, s uint64)
//
// The DQ product c = a·b, the tensor's one-product case.
TEXT ·montMulDQ(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R10
	MOVQ q+72(FP), R12
	MOVQ mu+80(FP), R13
	MOVQ s+88(FP), R14
	DQCONSTS
	XORQ AX, AX

muldqstep:
	VMOVDQU64 (R8)(AX*1), Z0
	VMOVDQU64 (R10)(AX*1), Z4
	VPSRLQ $32, Z0, Z1
	VPSRLQ $32, Z4, Z5
	DQMUL(Z0, Z1, Z4, Z5, Z8, Z9, Z10, Z17)
	DQCLOSE(Z8, Z9, Z10, Z18, Z19, Z20, Z21, K1)
	VMOVDQU64 Z8, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  muldqstep
	VZEROUPPER
	RET

// The products by a constant, c = (a − sub)·w + add0 + add1, one group of
// eight at byte offset OFF from AX, in four steps around the body's product
// (SHOUP52, SHOUPDQ), which forms v = x·w − ⌊x·ws/2^r⌋·q in [0, 2q):
// SHOUPIN loads x = a (SI); SHOUPSUB, where sub (R8) is given, makes it
// a − sub, canonical — the difference wraps where a < sub, and
// min(a − sub, a − sub + q) is then the second; SHOUPADD adds add0 (R9)
// and add1 (R10), each read under K3 / K4 — all lanes where the row is
// given, none (a zero) where it is not — and takes the sum, below 4q,
// below 2q; SHOUPOUT lands it in [0, q) and stores it to c (DI). Z26 = w,
// Z28 = 2q, Z31 = q; a subtraction that wraps leaves the larger word, so
// min picks the right one. The other registers are scratch.
#define SHOUPIN(OFF, X) \
	VMOVDQU64 OFF(SI)(AX*1), X

#define SHOUPSUB(OFF, X, T) \
	VMOVDQU64 OFF(R8)(AX*1), T; \
	VPSUBQ T, X, X; \
	VPADDQ Z31, X, T; \
	VPMINUQ T, X, X

#define SHOUPADD(OFF, V, T) \
	VMOVDQU64.Z OFF(R9)(AX*1), K3, T; \
	VPADDQ T, V, V; \
	VMOVDQU64.Z OFF(R10)(AX*1), K4, T; \
	VPADDQ T, V, V; \
	VPSUBQ Z28, V, T; \
	VPMINUQ T, V, V

#define SHOUPOUT(OFF, V, T) \
	VPSUBQ Z31, V, T; \
	VPMINUQ T, V, V; \
	VMOVDQU64 V, OFF(DI)(AX*1)

// The IFMA52 product, ntt's lazy MUL with ws the factor over 2^52 (wShoup
// >> 12, Z27): the high product, the low halves of x·w and of the estimate
// times 2^52 − q (Z30), summed modulo 2^52 (Z29 = 2^52 − 1); in [0, 2q)
// for x < 2^52.
#define SHOUP52(X, V, T) \
	VPXORQ T, T, T; \
	VPMADD52HUQ Z27, X, T; \
	VPXORQ V, V, V; \
	VPMADD52LUQ Z26, X, V; \
	VPMADD52LUQ Z30, T, V; \
	VPANDQ Z29, V, V

// The DQ product, the Go kernels' lazy Shoup product with the 64-bit
// factor ws = sh·2^32 + sl (Z27, Z25): the high word of x·ws from four
// 32 × 32 partial products as dq_amd64.s's MUL forms it (K1 the low dword
// of each word), then x·w − hi·q modulo 2^64; in [0, 2q) for x < 2^63.
#define SHOUPDQ(X, V, XH, T1, T2, T3) \
	VPSRLQ $32, X, XH; \
	VPMULUDQ Z27, X, T1; \
	VPSRLQ $32, T1, T1; \
	VPMULUDQ Z27, XH, T2; \
	VPADDQ T1, T2, T2; \
	VMOVDQU32.Z T2, K1, T1; \
	VPSRLQ $32, T2, T2; \
	VPMULUDQ Z25, X, T3; \
	VPADDQ T1, T3, T3; \
	VPSRLQ $32, T3, T3; \
	VPMULUDQ Z25, XH, XH; \
	VPADDQ T2, XH, XH; \
	VPADDQ T3, XH, XH; \
	VPMULLQ Z31, XH, XH; \
	VPMULLQ Z26, X, V; \
	VPSUBQ XH, V, V

// func shoupLanes(c, a, sub, add0, add1 []uint64, w, ws, q, has uint64)
//
// The IFMA52 body, one group of eight a step; has holds one byte each
// (0xff or 0) for sub, add0 and add1.
TEXT ·shoupLanes(SB), NOSPLIT, $0-152
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ sub_base+48(FP), R8
	MOVQ add0_base+72(FP), R9
	MOVQ add1_base+96(FP), R10
	VPBROADCASTQ w+120(FP), Z26
	MOVQ q+136(FP), AX
	VPBROADCASTQ AX, Z31
	ADDQ AX, AX
	VPBROADCASTQ AX, Z28
	VPBROADCASTQ ws+128(FP), Z27
	MOVQ $0xfffffffffffff, DX
	VPBROADCASTQ DX, Z29
	MOVQ $0x10000000000000, DX
	SUBQ q+136(FP), DX
	VPBROADCASTQ DX, Z30
	MOVQ has+144(FP), BX
	MOVQ BX, DX
	SHRQ $8, DX
	KMOVW DX, K3
	SHRQ $8, DX
	KMOVW DX, K4
	XORQ AX, AX

shoupstep:
	SHOUPIN(0, Z0)
	TESTQ $1, BX
	JZ   shoupmul
	SHOUPSUB(0, Z0, Z1)

shoupmul:
	SHOUP52(Z0, Z3, Z2)
	SHOUPADD(0, Z3, Z4)
	SHOUPOUT(0, Z3, Z4)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  shoupstep
	VZEROUPPER
	RET

// func shoupDQ(c, a, sub, add0, add1 []uint64, w, ws, q, has uint64)
//
// The DQ body, sixteen coefficients a step in two independent chains after
// a first group of eight alone where n/8 is odd. The plain product
// (has = 0) runs a loop without the difference and the adds: the 64-bit
// products leave no vector port to spare for masked no-ops.
TEXT ·shoupDQ(SB), NOSPLIT, $0-152
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ sub_base+48(FP), R8
	MOVQ add0_base+72(FP), R9
	MOVQ add1_base+96(FP), R10
	VPBROADCASTQ w+120(FP), Z26
	MOVQ q+136(FP), AX
	VPBROADCASTQ AX, Z31
	ADDQ AX, AX
	VPBROADCASTQ AX, Z28
	MOVQ ws+128(FP), DX
	VPBROADCASTQ DX, Z27
	SHRQ $32, DX
	VPBROADCASTQ DX, Z25
	MOVQ $0x5555, DX
	KMOVW DX, K1
	MOVQ has+144(FP), BX
	MOVQ BX, DX
	SHRQ $8, DX
	KMOVW DX, K3
	SHRQ $8, DX
	KMOVW DX, K4
	XORQ AX, AX
	TESTQ BX, BX
	JNZ  shoupdq
	TESTQ $64, CX
	JZ   plaindqpair
	SHOUPIN(0, Z0)
	SHOUPDQ(Z0, Z3, Z1, Z2, Z4, Z5)
	SHOUPOUT(0, Z3, Z4)
	MOVQ $64, AX
	CMPQ AX, CX
	JEQ  shoupdqdone

plaindqpair:
	SHOUPIN(0, Z0)
	SHOUPIN(64, Z8)
	SHOUPDQ(Z0, Z3, Z1, Z2, Z4, Z5)
	SHOUPDQ(Z8, Z11, Z9, Z10, Z12, Z13)
	SHOUPOUT(0, Z3, Z4)
	SHOUPOUT(64, Z11, Z12)
	ADDQ $128, AX
	CMPQ AX, CX
	JNE  plaindqpair
	JMP  shoupdqdone

shoupdq:
	TESTQ $64, CX
	JZ   shoupdqpair
	SHOUPIN(0, Z0)
	TESTQ $1, BX
	JZ   shoupdqfirst
	SHOUPSUB(0, Z0, Z1)

shoupdqfirst:
	SHOUPDQ(Z0, Z3, Z1, Z2, Z4, Z5)
	SHOUPADD(0, Z3, Z4)
	SHOUPOUT(0, Z3, Z4)
	MOVQ $64, AX
	CMPQ AX, CX
	JEQ  shoupdqdone

shoupdqpair:
	SHOUPIN(0, Z0)
	SHOUPIN(64, Z8)
	TESTQ $1, BX
	JZ   shoupdqmul
	SHOUPSUB(0, Z0, Z1)
	SHOUPSUB(64, Z8, Z9)

shoupdqmul:
	SHOUPDQ(Z0, Z3, Z1, Z2, Z4, Z5)
	SHOUPDQ(Z8, Z11, Z9, Z10, Z12, Z13)
	SHOUPADD(0, Z3, Z4)
	SHOUPADD(64, Z11, Z12)
	SHOUPOUT(0, Z3, Z4)
	SHOUPOUT(64, Z11, Z12)
	ADDQ $128, AX
	CMPQ AX, CX
	JNE  shoupdqpair

shoupdqdone:
	VZEROUPPER
	RET

// func addLanes(c, a, b []uint64, q uint64)
//
// MA: c = a + b mod q as min(a + b, a + b − q) — below 2q, the second wraps
// exactly where the first is already canonical. AVX-512 F only, so both
// vector bodies run it.
TEXT ·addLanes(SB), NOSPLIT, $0-80
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	VPBROADCASTQ q+72(FP), Z31
	XORQ AX, AX

addstep:
	VMOVDQU64 (SI)(AX*1), Z0
	VPADDQ (R8)(AX*1), Z0, Z0
	VPSUBQ Z31, Z0, Z1
	VPMINUQ Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  addstep
	VZEROUPPER
	RET

// func addScalarLanes(c, a []uint64, s, q uint64)
//
// MA by a constant: c = a + s mod q, addLanes with s broadcast.
TEXT ·addScalarLanes(SB), NOSPLIT, $0-64
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a_base+24(FP), SI
	VPBROADCASTQ s+48(FP), Z2
	VPBROADCASTQ q+56(FP), Z31
	XORQ AX, AX

addscalarstep:
	VPADDQ (SI)(AX*1), Z2, Z0
	VPSUBQ Z31, Z0, Z1
	VPMINUQ Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  addscalarstep
	VZEROUPPER
	RET

// func cpuAVX512() (ifma, dq bool)
//
// AVX512F with AVX512IFMA, and AVX512F with AVX512DQ (CPUID leaf 7: EBX
// bits 16, 21 and 17), each with the operating system saving opmask and
// ZMM state (OSXSAVE, then XCR0 bits 1, 2 and 5–7).
TEXT ·cpuAVX512(SB), NOSPLIT, $0-2
	MOVB $0, ifma+0(FP)
	MOVB $0, dq+1(FP)
	XORL CX, CX
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no
	BTL  $21, BX
	SETCS ifma+0(FP)
	BTL  $17, BX
	SETCS dq+1(FP)

no:
	RET
