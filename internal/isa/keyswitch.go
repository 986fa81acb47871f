package isa

import (
	"fmt"

	"poseidon/internal/numeric"
)

// The full hybrid keyswitch as an operator program — the paper's Keyswitch
// pipeline running entirely on the five shared cores: per-digit RNSconv
// (MM/MA cascades), NTT of the extended digits, MAC against the streamed
// key digits (MM/MA), ModDown (MM/MA), and the final transforms. The basis
// conversions are the approximate (correction-free) hardware form; the
// small overflow folds into keyswitch noise.

// KeySwitchConstants holds every scalar the program embeds for one level.
// The machine's modulus chain must be laid out [Q..., P...].
type KeySwitchConstants struct {
	Level int // active Q limbs − 1
	Alpha int // |P|
	LQ    int // |Q| (full chain length; limbs Level+1..LQ-1 are inactive)

	// Per digit d: BHatInv[d][j] for the digit's own limbs (indexed from
	// the digit's lo), and BHatMod[d][t][j] for every active target limb t
	// (machine limb index: 0..Level for Q, LQ..LQ+Alpha-1 for P).
	DigitLo, DigitHi []int
	BHatInv          [][]uint64
	BHatMod          [][][]uint64

	// ModDown: conversion P → Q plus [P^-1]_{q_i}.
	MDBHatInv []uint64   // per P limb
	MDBHatMod [][]uint64 // [qLimb][pLimb]
	PInv      []uint64   // per active Q limb
}

// NewKeySwitchConstants derives the constants for keyswitching at `level`
// over main basis q (full chain) and special basis p, with digit width
// alpha = len(p).
func NewKeySwitchConstants(q, p []numeric.Modulus, level int) KeySwitchConstants {
	alpha := len(p)
	ks := KeySwitchConstants{Level: level, Alpha: alpha, LQ: len(q)}
	digits := (level + 1 + alpha - 1) / alpha

	targets := append(append([]numeric.Modulus{}, q[:level+1]...), p...)
	for d := 0; d < digits; d++ {
		lo := d * alpha
		hi := min(lo+alpha, level+1)
		bHatInv, bHatMod := convConstants(q[lo:hi], targets)
		ks.DigitLo = append(ks.DigitLo, lo)
		ks.DigitHi = append(ks.DigitHi, hi)
		ks.BHatInv = append(ks.BHatInv, bHatInv)
		ks.BHatMod = append(ks.BHatMod, bHatMod)
	}

	ks.MDBHatInv, ks.MDBHatMod = convConstants(p, q[:level+1])
	for _, qi := range q[:level+1] {
		ks.PInv = append(ks.PInv, qi.Inv(productMod(qi, p, -1)))
	}
	return ks
}

// convConstants derives the scalars of the basis conversion src → dst as
// the program runs it (the paper's Fig 4: MM/MA cascades, no dedicated
// vector-scalar core): y_j = x_j · bHatInv[j] mod b_j, then
// Σ_j y_j · bHatMod[i][j] mod c_i. The conversion is the approximate
// (correction-free) hardware form.
func convConstants(src, dst []numeric.Modulus) (bHatInv []uint64, bHatMod [][]uint64) {
	for j, s := range src {
		bHatInv = append(bHatInv, s.Inv(productMod(s, src, j)))
	}
	for _, d := range dst {
		row := make([]uint64, len(src))
		for j := range src {
			row[j] = productMod(d, src, j)
		}
		bHatMod = append(bHatMod, row)
	}
	return bHatInv, bHatMod
}

// productMod returns Π_{t≠skip} ms[t] reduced under m.
func productMod(m numeric.Modulus, ms []numeric.Modulus, skip int) uint64 {
	prod := uint64(1)
	for t, mt := range ms {
		if t != skip {
			prod = m.Mul(prod, m.Reduce(mt.Q))
		}
	}
	return prod
}

// dot emits the inner product Σ_j ys[j]·c[j] under limb's modulus as an
// MMULS/MADD chain — the extension step of every basis conversion.
func (b *Builder) dot(ys []Reg, c []uint64, limb int) Reg {
	acc := b.Unary(MMulScalar, ys[0], limb, c[0])
	for j := 1; j < len(ys); j++ {
		acc = b.Bin(MAdd, acc, b.Unary(MMulScalar, ys[j], limb, c[j]), limb)
	}
	return acc
}

// targetLimb maps an active-target index (0..level, then P) to the machine
// limb index.
func (ks KeySwitchConstants) targetLimb(t int) int {
	if t <= ks.Level {
		return t
	}
	return ks.LQ + (t - ks.Level - 1)
}

// compileKeySwitchInto emits the keyswitch of coefficient-domain registers
// in[0..level] (already loaded) against key digit symbols
// "<key>.b<d>"/"<key>.a<d>", leaving the two NTT-domain outputs over the
// active Q limbs in the returned register slices.
func (ks KeySwitchConstants) compileKeySwitchInto(b *Builder, in []Reg, key string) (p0, p1 []Reg) {
	level := ks.Level
	alpha := ks.Alpha
	nTargets := level + 1 + alpha
	digits := len(ks.DigitLo)

	acc0 := make([]Reg, nTargets)
	acc1 := make([]Reg, nTargets)

	for d := 0; d < digits; d++ {
		lo, hi := ks.DigitLo[d], ks.DigitHi[d]
		// y_j = in_j · (B/b_j)^{-1} under the digit's own moduli.
		ys := make([]Reg, hi-lo)
		for j := lo; j < hi; j++ {
			ys[j-lo] = b.Unary(MMulScalar, in[j], j, ks.BHatInv[d][j-lo])
		}
		for t := 0; t < nTargets; t++ {
			limb := ks.targetLimb(t)
			var ext Reg
			if t >= lo && t < hi {
				ext = in[t] // digit-own limb passes through
			} else {
				ext = b.dot(ys, ks.BHatMod[d][t], limb)
			}
			nttExt := b.Unary(NTT, ext, limb, 0)
			kb := b.Load(fmt.Sprintf("%s.b%d", key, d), limb)
			ka := b.Load(fmt.Sprintf("%s.a%d", key, d), limb)
			t0 := b.Bin(MMul, nttExt, kb, limb)
			t1 := b.Bin(MMul, nttExt, ka, limb)
			if d == 0 {
				acc0[t] = t0
				acc1[t] = t1
			} else {
				acc0[t] = b.Bin(MAdd, acc0[t], t0, limb)
				acc1[t] = b.Bin(MAdd, acc1[t], t1, limb)
			}
		}
	}

	// ModDown both accumulators: INTT, convert the P part to Q, subtract,
	// scale by P^{-1}, NTT back.
	modDown := func(acc []Reg) []Reg {
		coeff := make([]Reg, nTargets)
		for t := 0; t < nTargets; t++ {
			coeff[t] = b.Unary(INTT, acc[t], ks.targetLimb(t), 0)
		}
		ys := make([]Reg, alpha)
		for j := 0; j < alpha; j++ {
			limb := ks.LQ + j
			ys[j] = b.Unary(MMulScalar, coeff[level+1+j], limb, ks.MDBHatInv[j])
		}
		out := make([]Reg, level+1)
		for i := 0; i <= level; i++ {
			diff := b.Bin(MSub, coeff[i], b.dot(ys, ks.MDBHatMod[i], i), i)
			scaled := b.Unary(MMulScalar, diff, i, ks.PInv[i])
			out[i] = b.Unary(NTT, scaled, i, 0)
		}
		return out
	}
	return modDown(acc0), modDown(acc1)
}

// CompileKeySwitch lowers a standalone keyswitch: input symbol `in`
// (coefficient domain, active Q limbs), key digits under `key`, outputs
// "out.p0"/"out.p1" in the NTT domain.
func CompileKeySwitch(ks KeySwitchConstants, in, key string) *Program {
	b := NewBuilder(fmt.Sprintf("KeySwitch(level=%d)", ks.Level))
	regs := make([]Reg, ks.Level+1)
	for l := 0; l <= ks.Level; l++ {
		regs[l] = b.Load(in, l)
	}
	p0, p1 := ks.compileKeySwitchInto(b, regs, key)
	for l := 0; l <= ks.Level; l++ {
		b.Store("out.p0", p0[l], l)
		b.Store("out.p1", p1[l], l)
	}
	return b.Build()
}
