// Package rns implements the residue-number-system conversions at the heart
// of RNS-CKKS keyswitching and rescaling — the paper's Eq. 1–3:
//
//	RNSconv: approximate CRT basis extension of a value from basis B to
//	         basis C (a chain of fused MA/MM operations in hardware, closed
//	         by one shared reduction — here one Montgomery REDC a word,
//	         against tables kept in Montgomery form);
//	ModUp:   extension of a_Q to the enlarged basis Q ∪ P;
//	ModDown: exact division by P after keyswitching;
//	Rescale: division by the last prime of the chain with rounding.
//
// RNSconv's sum has three bodies. The Go body (Extender.emit) runs four
// coefficients a step in 128-bit accumulators closed by one REDC. On an
// AVX-512 host numeric.ConvertLanes runs it eight coefficients a ZMM
// register, on the body numeric.Modulus.ConvertBody picks per destination
// (Extender.lanes): the IFMA52 lanes — a split 52-bit accumulator closed by
// two radix-2^52 REDCs — where every source prime is below 2^52, the
// destination below 2^50 and the sum within their budget, else the DQ
// lanes — 32 × 32-bit partial products in three 64-bit accumulators, closed
// by a REDC by 2^64 in two steps — for q0, the P primes and the wide
// sources of digit 0 and of ModDown. All three close to the canonical
// residue of the same integer, so the words are the same whichever body
// ran.
//
// All routines operate limb-wise on raw residue slices so both the CKKS
// evaluator and the accelerator's functional model can drive them.
package rns

import (
	"fmt"
	"math"
	"math/bits"

	"poseidon/internal/numeric"
)

// Extender performs CRT basis extension from a source subset of a global
// modulus list to any other subset. The float-assisted correction makes the
// extension exact for inputs bounded away from ±B/2 (the standard
// HPS-style conversion); without correction the result may exceed the true
// value by a small multiple of B, which hybrid keyswitching tolerates.
//
// The conversion is the paper's RNSconv dataflow: per block of coefficients
// the y_j = [x_j·(B/b_j)^-1]_{b_j} and the overflow count k are computed once
// (stage), then every destination limb the caller reads is one chain of raw
// 128-bit multiply-accumulates Σ y_j·(B/b_j) + k·(c_i − B mod c_i) closed by
// a single REDC (emit) — no per-term reduction, no intermediate matrix. The
// destination-side tables hold their entries times 2^64 mod c_i, so the
// 2^-64 of that one REDC is already paid for when the table is built and a
// word costs two multiplies to close where a 128-bit Barrett costs five.
//
// emit is that chain in Go, four coefficients a step. emitRows sends each
// run of destinations on one vector body (lanes) to numeric.ConvertLanes,
// which reads the same tables eight coefficients a register and takes the
// same 2^64 out in its close; only sums past the DQ budget (many 61-bit
// terms) and a block's last b.n mod 8 coefficients keep the Go body. The
// words are the same either way.
type Extender struct {
	src []numeric.Modulus // source basis B
	dst []numeric.Modulus // destination moduli C (any set of odd moduli)

	bHatInv      []uint64   // [ (B/b_j)^-1 ]_{b_j}
	bHatInvShoup []uint64   // Shoup duals of bHatInv
	bHatModC     [][]uint64 // [i][j] = (B/b_j)·2^64 mod c_i
	negBModC     []uint64   // −B·2^64 mod c_i: k of these cancel the CRT overflow k·B
	invB         []float64  // 1 / b_j, for the rounding estimate
	srcMax       uint64     // the widest source prime, the body rule's y bound

	blockLen int // coefficients per block: a multiple of 8, (len(src)+1)·blockLen ≤ stageWords
}

const (
	// stageWords bounds the y_j staging of one block (len(src)·blockLen
	// words), and maxBlock the block itself: together ≈ 12 KB of stack, so a
	// block's working set stays L1-resident and no conversion touches the heap.
	stageWords = 1024
	maxBlock   = 256
)

// block is the per-call staging of one coefficient block; it lives on the
// caller's stack. Rows are padded to a multiple of four coefficients so emit
// can run four independent accumulator chains per step; the pad lanes hold
// leftovers whose results are never stored.
type block struct {
	ys     [stageWords]uint64 // y_j of coefficient t at ys[j·stride + t]
	k      [maxBlock]uint64   // overflow count of coefficient t
	n      int                // coefficients staged
	stride int                // n rounded up to a multiple of 4
}

// NewExtender builds the extension tables from basis src to moduli dst.
func NewExtender(src, dst []numeric.Modulus) *Extender {
	l := len(src)
	if l == 0 {
		panic("rns: empty source basis")
	}
	// l products below 2^122, ModDown's seed term and the k·(−B mod c_i) term
	// must fit the 128-bit accumulator emit closes with one reduction.
	if l+2 > numeric.MaxLazyProducts {
		panic(fmt.Sprintf("rns: source basis of %d primes exceeds %d", l, numeric.MaxLazyProducts-2))
	}
	e := &Extender{src: src, dst: dst, blockLen: min(maxBlock, stageWords/(l+1)&^7)}
	e.bHatInv = make([]uint64, l)
	e.bHatInvShoup = make([]uint64, l)
	e.invB = make([]float64, l)
	for j := 0; j < l; j++ {
		bj := src[j]
		e.bHatInv[j] = bj.Inv(prodMod(bj, src, j))
		e.bHatInvShoup[j] = bj.ShoupConstant(e.bHatInv[j])
		e.invB[j] = 1.0 / float64(bj.Q)
		e.srcMax = max(e.srcMax, bj.Q)
	}
	e.bHatModC = make([][]uint64, len(dst))
	e.negBModC = make([]uint64, len(dst))
	for i, ci := range dst {
		if ci.Q%2 == 0 { // no q^-1 mod 2^64: REDC would emit wrong residues
			panic(fmt.Sprintf("rns: even destination modulus %d", ci.Q))
		}
		e.bHatModC[i] = make([]uint64, l)
		e.negBModC[i] = ci.MForm(ci.Neg(prodMod(ci, src, -1)))
		for j := 0; j < l; j++ {
			e.bHatModC[i][j] = ci.MForm(prodMod(ci, src, j))
		}
	}
	return e
}

// prodMod returns the product of the moduli ms, ms[skip] left out (skip < 0
// leaves none out), modulo m.
func prodMod(m numeric.Modulus, ms []numeric.Modulus, skip int) uint64 {
	prod := uint64(1)
	for t := range ms {
		if t != skip {
			prod = m.Mul(prod, m.Reduce(ms[t].Q))
		}
	}
	return prod
}

// stage computes, for the n ≤ blockLen coefficients starting at t0, the
// y_j = [x_j·(B/b_j)^-1]_{b_j} of every source limb and the overflow count
// k = round(Σ_j y_j/b_j), summed in source-limb order.
func (e *Extender) stage(b *block, in [][]uint64, t0, n int) {
	b.n, b.stride = n, (n+3)&^3
	var v [maxBlock]float64
	for j, bj := range e.src {
		w, ws, inv := e.bHatInv[j], e.bHatInvShoup[j], e.invB[j]
		x := in[j][t0 : t0+n]
		y := b.ys[j*b.stride:][:n]
		for t, xt := range x {
			r := bj.MulShoup(xt, w, ws)
			y[t] = r
			v[t] += float64(r) * inv
		}
	}
	for t := 0; t < n; t++ {
		b.k[t] = uint64(math.Round(v[t]))
	}
}

// emitRows writes the staged block's residues modulo destinations i0,
// i0+1, … into out[r][t0:t0+b.n], one row of out a destination. Each run of
// destinations on one vector body (lanes) is one ConvertLanes call over the
// block's whole groups of eight coefficients; the Go body (emit) writes the
// destinations the rule keeps on Go and the last b.n mod 8 coefficients.
// seed, when not nil, holds ModDown's a_i rows, one per row of out (and may
// be out): the lanes read them in place, the Go body from the block's seed
// row.
func (e *Extender) emitRows(out [][]uint64, i0 int, b *block, t0 int, seed [][]uint64) {
	cols, nl := len(e.src), b.n&^7
	if seed != nil {
		cols++
	}
	for r := 0; r < len(out); {
		s, from := r+1, 0
		if body := e.lanes(i0+r, cols); nl > 0 && body != numeric.BodyGo {
			for s < len(out) && e.lanes(i0+s, cols) == body {
				s++
			}
			var sd [][]uint64
			if seed != nil {
				sd = seed[r:s]
			}
			numeric.ConvertLanes(body, out[r:s], sd, e.dst[i0+r:i0+s], e.bHatModC[i0+r:i0+s], e.negBModC[i0+r:i0+s],
				b.ys[:], b.k[:], t0, nl, b.stride, len(e.src))
			from = nl
		}
		for ; r < s; r++ {
			if from == b.n {
				continue
			}
			if seed != nil {
				copy(b.ys[len(e.src)*b.stride:][from:b.n], seed[r][t0+from:t0+b.n])
			}
			e.emit(out[r][t0:t0+b.n], i0+r, cols, b, from)
		}
	}
}

// lanes is the one rule that picks the body of destination i's sum over
// cols staged columns: numeric.Modulus.ConvertBody for cols+1 terms (the k
// column too) against the widest y — the widest source prime, or c_i
// itself when ModDown's seed column (a residue of c_i) rides along. The
// IFMA52 lanes take a destination below 2^50 whose sources are all below
// 2^52 and whose sum fits their budget; the DQ lanes take every other one
// whose sum fits theirs — q0, the P primes, the 55- and 58-bit sources of
// digit 0 and of P13's ModDown — and only a sum of many 61-bit terms (the
// Tall test shape's ModDown) keeps Go.
func (e *Extender) lanes(i, cols int) numeric.Body {
	c, y := e.dst[i], e.srcMax
	if cols > len(e.src) {
		y = max(y, c.Q)
	}
	return c.ConvertBody(y, cols+1)
}

// emit is the Go body: it writes the staged block's residues modulo
// destination i into out[from:] (len(out) = b.n, from a multiple of 4):
// Σ_j y_j·(B/b_j) − k·B accumulated unreduced in 128 bits against the
// Montgomery-form row and closed by one REDC, which takes the table's 2^64
// back out — so the result is the canonical residue. cols is how many
// columns of the table row, and staged rows of the block, the sum reads:
// len(src), plus one when ModDown's seed column rides along.
//
// Four coefficients a step, each accumulator a scalar local: those the
// compiler holds in registers, where a local array of them lives on the
// stack. The masks on the two cuts are identities (t and the row offsets are
// multiples of four inside the staged rows); they are there so that the
// compiler sees the cuts are in range and drops the check and the length it
// would carry through the inner loop.
func (e *Extender) emit(out []uint64, i, cols int, b *block, from int) {
	ci := &e.dst[i]
	row, nb := e.bHatModC[i][:cols], e.negBModC[i]
	out = out[:b.n]
	for t := from; t < len(out); t += 4 {
		k := b.k[t&(maxBlock-4):][:4]
		h0, l0 := bits.Mul64(k[0], nb)
		h1, l1 := bits.Mul64(k[1], nb)
		h2, l2 := bits.Mul64(k[2], nb)
		h3, l3 := bits.Mul64(k[3], nb)
		off := t
		for _, w := range row {
			y := b.ys[off&(stageWords-4):][:4]
			var c uint64
			ph, pl := bits.Mul64(y[0], w)
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(y[1], w)
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			ph, pl = bits.Mul64(y[2], w)
			l2, c = bits.Add64(l2, pl, 0)
			h2 += ph + c
			ph, pl = bits.Mul64(y[3], w)
			l3, c = bits.Add64(l3, pl, 0)
			h3 += ph + c
			off += b.stride
		}
		// The last step of a block may hold fewer than four coefficients; its
		// other lanes ran on the rows' padding and are not stored.
		o := out[t:]
		o[0] = redc(h0, l0, ci.Q, ci.QInv)
		if len(o) > 1 {
			o[1] = redc(h1, l1, ci.Q, ci.QInv)
		}
		if len(o) > 2 {
			o[2] = redc(h2, l2, ci.Q, ci.QInv)
		}
		if len(o) > 3 {
			o[3] = redc(h3, l3, ci.Q, ci.QInv)
		}
	}
}

// redc returns (h·2^64 + l)·2^-64 mod q as the canonical residue, for any
// 128-bit input and odd q. Montgomery reduction wants h < q; a sum of about
// seven or more 61-bit products can leave it larger, and then h is folded
// first (h·2^64 ≡ (h mod q)·2^64) — a branch the keyswitching bases never
// take. With m = l·q^-1 mod 2^64 the low words of h·2^64 + l and m·q agree,
// so their difference over 2^64 is h − hi(m·q), in (−q, q).
func redc(h, l, q, qInv uint64) uint64 {
	if h >= q {
		h %= q
	}
	mh, _ := bits.Mul64(l*qInv, q)
	r := h - mh + q
	if r >= q {
		r -= q
	}
	return r
}

// Extend converts the residue vectors in[j][·] (one slice per source prime)
// into out[i][·] (one slice per destination modulus). Residues are treated
// as centered values in (−B/2, B/2]; the float correction removes the
// overflow multiples of B, making the conversion exact for |x| < B/2·(1−ε).
func (e *Extender) Extend(out, in [][]uint64) {
	if len(in) != len(e.src) {
		panic(fmt.Sprintf("rns: %d input limbs, want %d", len(in), len(e.src)))
	}
	if len(out) != len(e.dst) {
		panic(fmt.Sprintf("rns: %d output limbs, want %d", len(out), len(e.dst)))
	}
	var b block
	for t0, n := 0, len(in[0]); t0 < n; t0 += e.blockLen {
		cnt := min(e.blockLen, n-t0)
		e.stage(&b, in, t0, cnt)
		e.emitRows(out, 0, &b, t0, nil)
	}
}

// ModDownParams precomputes the constants for exact division by the special
// basis P over the main basis Q.
type ModDownParams struct {
	Q, P []numeric.Modulus
	// ext is the P → Q extender with P^-1 folded in and a seed column
	// appended: row i reads −(P/p_j)·P^-1 per source limb, then P^-1 for the
	// a_i term, and its k weight is +P·P^-1 = 1 (all in Montgomery form, like
	// every Extender table) — so one emit chain yields (a_i − conv_i)·P^-1
	// directly, and the same chain read without the seed column yields
	// −conv_i·P^-1 (Correction).
	ext *Extender
	// pInv[i] = [P^-1]_{q_i} and its Shoup dual: the factor of the a_i term
	// when the caller adds it itself (PInv).
	pInv, pInvShoup []uint64
}

// NewModDownParams builds ModDown tables for main basis Q and special
// basis P.
func NewModDownParams(q, p []numeric.Modulus) *ModDownParams {
	m := &ModDownParams{Q: q, P: p, ext: NewExtender(p, q), pInv: make([]uint64, len(q)), pInvShoup: make([]uint64, len(q))}
	for i, qi := range q {
		pInv := qi.Inv(prodMod(qi, p, -1))
		m.pInv[i], m.pInvShoup[i] = pInv, qi.ShoupConstant(pInv)
		// A Montgomery-form entry times the plain P^-1 stays in Montgomery form.
		row := m.ext.bHatModC[i]
		for j := range row {
			row[j] = qi.Neg(qi.Mul(row[j], pInv))
		}
		m.ext.bHatModC[i] = append(row, qi.MForm(pInv))
		m.ext.negBModC[i] = qi.RModQ // (P mod q_i)·P^-1 = 1
	}
	return m
}

// ModDown computes out_i = (aQ_i − conv(aP)_i) · P^{-1} mod q_i — Eq. 2 of
// the paper — realizing rounding division of the Q∪P value by P.
// aQ has len(Q) limbs, aP has len(P) limbs; out has len(Q) limbs and may
// alias aQ. conv(aP) is never materialized: each a_i block rides the
// accumulation as one more term and the sum takes a single reduction.
func (m *ModDownParams) ModDown(out, aQ, aP [][]uint64) {
	var b block
	e := m.ext
	for t0, n := 0, len(aQ[0]); t0 < n; t0 += e.blockLen {
		cnt := min(e.blockLen, n-t0)
		e.stage(&b, aP, t0, cnt)
		e.emitRows(out[:len(m.Q)], 0, &b, t0, aQ[:len(m.Q)])
	}
}

// Correction computes out_i = −conv(aP)_i · P^{-1} mod q_i: the part of
// ModDown that reads the P limbs, with the same conv — float-corrected k and
// rounding included — so ModDown(aQ, aP)_i = Correction(aP)_i + P^{-1}·aQ_i
// as canonical residues. The second term is linear in aQ_i alone; a caller
// that holds aQ in the NTT domain and wants the result there adds it after
// transforming out (PInv gives the factor) and never takes aQ out of the NTT
// domain: NTT(ModDown)_i = NTT(Correction)_i + P^{-1}·NTT(aQ)_i.
func (m *ModDownParams) Correction(out, aP [][]uint64) {
	var b block
	e := m.ext
	for t0, n := 0, len(aP[0]); t0 < n; t0 += e.blockLen {
		cnt := min(e.blockLen, n-t0)
		e.stage(&b, aP, t0, cnt)
		e.emitRows(out[:len(m.Q)], 0, &b, t0, nil)
	}
}

// PInv returns [P^{-1}]_{q_i} and its Shoup dual.
func (m *ModDownParams) PInv(i int) (w, wShoup uint64) { return m.pInv[i], m.pInvShoup[i] }

// Rescaler divides by the last prime of a chain with rounding — the CKKS
// Rescale operation.
type Rescaler struct {
	moduli []numeric.Modulus
	// consts[l][i], i < l: the constants of dropping prime l from limb i.
	consts [][]rescaleConst
}

type rescaleConst struct {
	qlInv, qlInvShoup uint64 // [q_l^-1]_{q_i} and its Shoup dual
	halfModQi         uint64 // (q_l−1)/2 mod q_i
}

// NewRescaler builds a rescaler over the full modulus chain.
func NewRescaler(moduli []numeric.Modulus) *Rescaler {
	r := &Rescaler{moduli: moduli, consts: make([][]rescaleConst, len(moduli))}
	for l, ql := range moduli {
		r.consts[l] = make([]rescaleConst, l)
		for i, qi := range moduli[:l] {
			c := &r.consts[l][i]
			c.halfModQi = qi.Reduce(ql.Q >> 1)
			c.qlInv = qi.Inv(qi.Reduce(ql.Q))
			c.qlInvShoup = qi.ShoupConstant(c.qlInv)
		}
	}
	return r
}

// CenterLast writes into dst the centered representative of each last-limb
// residue (modulo q_l, coefficient domain) reduced modulo q_i, i < l — the
// value Rescale subtracts from limb i.
func (r *Rescaler) CenterLast(dst, last []uint64, l, i int) {
	qi, ql, hModQi := r.moduli[i].Q, r.moduli[l].Q, r.consts[l][i].halfModQi
	last = last[:len(dst)]
	for t := range dst {
		dst[t] = centered(last[t], ql, qi, hModQi)
	}
}

// centered returns, modulo q_i, the representative of x mod q_l in [−h, h],
// h = (q_l−1)/2, as ((x + h) mod q_l) − h: which of x and x − q_l that is
// depends on the data half the time, and this form does not branch on it.
// hModQi is h mod q_i. Plain words in and out so that it inlines — through
// Modulus methods the same steps run slower than the branch they replace.
func centered(x, ql, qi, hModQi uint64) uint64 {
	v := x + ql>>1
	if v >= ql {
		v -= ql
	}
	if v >= qi {
		v %= qi
	}
	d := v - hModQi
	if d > v { // borrow
		d += qi
	}
	return d
}

// SubScale computes out = (a − c)·q_l^{-1} mod q_i — the tail of Rescale on
// limb i. It is linear, so it holds in the NTT domain as well: with c the
// forward transform of CenterLast's output, out is the NTT image of the
// rescaled limb. out may alias a or c.
func (r *Rescaler) SubScale(out, a, c []uint64, l, i int) {
	qi, w, ws := r.moduli[i].Q, r.consts[l][i].qlInv, r.consts[l][i].qlInvShoup
	a, c = a[:len(out)], c[:len(out)]
	for t := range out {
		d := a[t] - c[t]
		if d > a[t] { // borrow
			d += qi
		}
		hi, _ := bits.Mul64(d, ws)
		v := d*w - hi*qi
		if v >= qi {
			v -= qi
		}
		out[t] = v
	}
}

// Rescale computes out_i = q_l^{-1} · (a_i − a_l) mod q_i for i < l, where
// a_l is re-centered before reduction so the implicit division rounds to
// nearest. in has l+1 limbs; out receives l limbs and may alias in.
func (r *Rescaler) Rescale(out, in [][]uint64) {
	l := len(in) - 1
	if l < 1 {
		panic("rns: rescale needs at least two limbs")
	}
	ql := r.moduli[l].Q
	for i := 0; i < l; i++ {
		qi, k := r.moduli[i], r.consts[l][i]
		o, a, last := out[i], in[i], in[l]
		for t := range o {
			c := centered(last[t], ql, qi.Q, k.halfModQi)
			o[t] = qi.MulShoup(qi.Sub(a[t], c), k.qlInv, k.qlInvShoup)
		}
	}
}

// Decomposer splits a level-l polynomial over Q into hybrid-keyswitching
// digits: digit d covers the primes with indices [d·alpha, (d+1)·alpha) of
// Q, and each digit is CRT-extended to the full active basis Q_l ∪ P.
type Decomposer struct {
	Q, P  []numeric.Modulus
	Alpha int

	// extenders[d][size-1] extends digit d when it holds `size` primes (the
	// last digit of a level may be short) to all moduli, Q then P, so one
	// table serves every level. Built eagerly: the hot path takes no lock.
	extenders [][]*Extender
}

// NewDecomposer creates a decomposer for main basis Q, special basis P and
// digit width alpha (typically len(P)).
func NewDecomposer(q, p []numeric.Modulus, alpha int) *Decomposer {
	if alpha < 1 {
		panic("rns: alpha must be ≥ 1")
	}
	d := &Decomposer{Q: q, P: p, Alpha: alpha}
	dst := make([]numeric.Modulus, 0, len(q)+len(p))
	dst = append(append(dst, q...), p...)
	for lo := 0; lo < len(q); lo += alpha {
		hi := min(lo+alpha, len(q))
		sizes := make([]*Extender, hi-lo)
		for size := range sizes {
			sizes[size] = NewExtender(q[lo:lo+size+1], dst)
		}
		d.extenders = append(d.extenders, sizes)
	}
	return d
}

// Digits returns the number of digits at level l: ceil((l+1)/alpha).
func (d *Decomposer) Digits(level int) int {
	return (level + d.Alpha) / d.Alpha
}

// DigitRange returns the [lo, hi) prime-index range of digit dig at level l.
func (d *Decomposer) DigitRange(level, dig int) (lo, hi int) {
	lo = dig * d.Alpha
	hi = lo + d.Alpha
	if hi > level+1 {
		hi = level + 1
	}
	return lo, hi
}

// DecomposeAndExtend extracts digit dig of the level-l input (limbs over Q,
// coefficient domain) and extends it to the active basis: out must have
// level+1+len(P) limbs ordered Q_0..Q_level, P_0..P_{alpha-1}. Digit-own
// limbs are copied verbatim; the rest — and only those — are produced by
// RNSconv (ExtendDigit), written straight into out.
func (d *Decomposer) DecomposeAndExtend(level, dig int, in, out [][]uint64) {
	lo, hi := d.DigitRange(level, dig)
	d.ExtendDigit(level, dig, in, out)
	for i := lo; i < hi; i++ {
		copy(out[i], in[i])
	}
}

// ExtendDigit is DecomposeAndExtend without the copy: it writes every limb of
// out except the digit's own [lo, hi), which it leaves untouched. A digit-own
// limb of the extension is the input limb itself, so a caller that already
// holds the input's NTT image has that row's transform and needs neither the
// copy nor the transform of it.
func (d *Decomposer) ExtendDigit(level, dig int, in, out [][]uint64) {
	lo, hi := d.DigitRange(level, dig)
	e := d.extenders[dig][hi-lo-1]
	nQP := level + 1 + len(d.P)
	if len(out) != nQP {
		panic(fmt.Sprintf("rns: out has %d limbs, want %d", len(out), nQP))
	}
	var b block
	for t0, n := 0, len(in[0]); t0 < n; t0 += e.blockLen {
		cnt := min(e.blockLen, n-t0)
		e.stage(&b, in[lo:hi], t0, cnt)
		e.emitRows(out[:lo], 0, &b, t0, nil)
		e.emitRows(out[hi:level+1], hi, &b, t0, nil)
		e.emitRows(out[level+1:], len(d.Q), &b, t0, nil)
	}
}
