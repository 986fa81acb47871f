package numeric

import "math/bits"

// The vector bodies of the keyswitch inner product, eight coefficients a
// ZMM register (lanes_amd64.s), each closing a run of digits once to the
// canonical residue, as the Go body's one Barrett reduction does — so the
// words are the same whichever body ran. The IFMA52 lanes (q < 2^50) add
// each product x·k as its low and high 52-bit halves into a split
// accumulator L + H·2^52 and close it with two radix-2^52 REDCs and one
// correction. The DQ lanes (any other odd q < 2^61) form x·k from four
// 32 × 32 partial products, sum them in three 64-bit accumulators and close
// them with one Barrett reduction. The RNS conversion's emit step has a
// body on each (ConvertLanes), chosen by ConvertBody. DESIGN.md §12 "Lanes"
// has the derivations of every budget below.

// vecBody is the body a kernel over rows of n words and terms products
// (VecInnerProductPair's digits, VecMACPair's diagonals) runs: m.Body()
// where the rows are whole registers — n a nonzero multiple of 8 — and
// there is at least one term, else Go.
func (m Modulus) vecBody(n, terms int) Body {
	if n == 0 || n%8 != 0 || terms == 0 {
		return BodyGo
	}
	return m.Body()
}

// laneRunLength returns how many products of residues below q the lanes may
// sum before they must close. With one residue r < q carried in L (the
// running sum of an earlier run, or the out row an add folds onto) and T
// products after it:
//
//	L ≤ (q−1) + T·(2^52−1) < (T+1)·2^52,  so ⌊L/2^52⌋ ≤ T
//	H ≤ T·h,  h = ⌊(q−1)²/2^52⌋
//
// The first REDC leaves A = H + ⌊L/2^52⌋ + q − ⌊m·q/2^52⌋ ≤ T·(h+1) + q,
// and A must fit the 52-bit multiplier of the second: T·(h+1) + q < 2^52.
// L itself must not wrap: (q−1) + T·(2^52−1) < 2^64 holds for T ≤ 4095.
// For q < 2^50 the run is at least 12 — 12 just under 2^50, the cap of
// 4095 for the 40- and 45-bit primes of the ladder rings. One division,
// paid per call of innerProductVec.
func laneRunLength(q uint64) int {
	return min(4095, int((1<<52-1-q)/(laneHigh(q, q)+1)))
}

// laneHigh is the most one product adds to H: ⌊(x−1)(w−1)/2^52⌋ for factors
// below x and w.
func laneHigh(x, w uint64) uint64 {
	hi, lo := bits.Mul64(x-1, w-1)
	return hi<<12 | lo>>52
}

// ConvertBody is the shape gate of the RNS conversion's vector bodies
// (ConvertLanes): the body on which a sum of terms products y·w, every y
// below yMax and every w a residue of m, closes once to its canonical
// residue times 2^-64. y is a residue of a source prime that may be wider
// than m. It is BodyIFMA52 where m's body is and the split-52 budget holds
// (convertFitsLanes), else BodyDQ where m has the DQ lanes — the body rule
// with the IFMA52 half off, so a narrow m whose IFMA52 budget refuses the
// sum takes them too — and the DQ budget holds (convertFitsDQ), else
// BodyGo. DESIGN.md §12 "Lanes for the RNS conversion" has both budgets.
func (m Modulus) ConvertBody(yMax uint64, terms int) Body {
	switch {
	case terms < 1:
		return BodyGo
	case m.Body() == BodyIFMA52 && convertFitsLanes(m.Q, yMax, terms):
		return BodyIFMA52
	case bodyOf(m.Q, false, hasDQ) == BodyDQ && convertFitsDQ(m.Q, yMax, terms):
		return BodyDQ
	}
	return BodyGo
}

// convertFitsLanes is the IFMA52 conversion budget: yMax ≤ 2^52 so the
// multiplier reads all of y, and — with no residue carried in L, so
// ⌊L/2^52⌋ < terms — the close's bound terms·(h+1) + q < 2^52 holds,
// h = laneHigh(yMax, q). L wraps at 4096 terms.
func convertFitsLanes(q, yMax uint64, terms int) bool {
	if yMax > 1<<52 || terms > 4095 {
		return false
	}
	return uint64(terms)*(laneHigh(yMax, q)+1)+q < 1<<52
}

// convertFitsDQ is the DQ conversion budget. The close, a REDC by 2^64 in
// two 32-bit steps, needs the sum V below q·2^64: every product is at most
// (yMax−1)·(q−1), so V ≤ terms·(yMax−1)·(q−1) < q·2^64 once
// terms·(yMax−1) < 2^64. Its first step's word adds A1 to less than 2^62,
// so A1 must stay below 2^63; A1 takes each product's cross terms
// yl·wh + yh·wl ≤ (2^32−1)·(⌊(yMax−1)/2^32⌋ + ⌊(q−1)/2^32⌋). y is a
// residue, so yMax ≤ 2^61 and that bound fits a word.
func convertFitsDQ(q, yMax uint64, terms int) bool {
	if yMax > 1<<MaxModulusBits {
		return false
	}
	cross := (1<<32 - 1) * ((yMax-1)>>32 + (q-1)>>32)
	hiS, _ := bits.Mul64(uint64(terms), yMax-1)
	hiA1, a1 := bits.Mul64(uint64(terms), cross)
	return hiS == 0 && hiA1 == 0 && a1 < 1<<63
}

// dqRunLength returns how many products of residues below q the DQ lanes
// may sum before they must close. With b = bits(q), s = b − 1, one residue
// r < q carried in A0 and T products after it, the sum is
//
//	V = r + Σ x·k ≤ (q−1) + T·(q−1)² < 2^b + T·2^(2b),
//
// which is below 2^(63+b) = 2^(64+s) — so V1 = ⌊V/2^s⌋ fits a word and the
// close's Barrett estimate is at most two short — for
// T ≤ 2^(63−b) − 1. The same T keeps A1 from wrapping: each product adds
// lh + hl < 2·2^32·2^(b−32) = 2^(b+1) to it, and T·2^(b+1) < 2^64. A2 is
// at most ⌊V/2^64⌋, and A0 wraps at most once a product. So the run is 3
// for a 61-bit q, 31 at 58 bits, 255 at 55, and the cap of 4095 from 51
// bits down. No division: the run is a shift of bits(q).
func dqRunLength(q uint64) int {
	return int(min(4095, uint64(1)<<(63-bits.Len64(q))-1))
}

// innerProductVec is VecInnerProductPair on vector body b (BodyIFMA52 or
// BodyDQ), for len(out0) a nonzero multiple of 8 and at least one digit:
// run by run of at most the body's run length, each later run folding onto
// the residues of the ones before. The rows are checked here, so the
// assembly reads no word outside them; a permutation entry outside
// [0, len(out0)) panics.
func (m Modulus) innerProductVec(b Body, out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool) {
	n := len(out0)
	out1 = out1[:n]
	if perm != nil {
		perm = perm[:n]
	}
	k0, k1 = k0[:len(x)], k1[:len(x)]
	for d := range x {
		_, _, _ = x[d][:n], k0[d][:n], k1[d][:n]
	}
	var run int
	var c1, c2 uint64
	if b == BodyIFMA52 {
		// q^-1 mod 2^52 and 2^40·2^64 mod q, the two REDCs' constants.
		run, c1, c2 = laneRunLength(m.Q), m.QInv&(1<<52-1), m.MulShoup(1<<40, m.RModQ, m.RModQShoup)
	} else {
		// μ = ⌊2^(64+s)/q⌋ = ⌊⌊2^128/q⌋/2^(64−s)⌋, from the Barrett constant.
		s := uint64(m.Bits - 1)
		run, c1, c2 = dqRunLength(m.Q), m.BarrettHi<<s|m.BarrettLo>>(64-s), s
	}
	for len(x) > 0 {
		r := min(len(x), run)
		var ok bool
		if b == BodyIFMA52 {
			ok = innerProductPairLanes(out0, out1, x[:r], k0[:r], k1[:r], perm, add, m.Q, c1, c2)
		} else {
			ok = innerProductPairDQ(out0, out1, x[:r], k0[:r], k1[:r], perm, add, m.Q, c1, c2)
		}
		if !ok {
			panic("numeric: permutation entry out of range")
		}
		x, k0, k1, add = x[r:], k0[r:], k1[r:], true
	}
}

// ConvertLanes is a vector body of an RNS conversion's emit step over one
// staged block of n coefficients, n a nonzero multiple of 8: body b, which
// is BodyIFMA52 or BodyDQ. For each destination r it writes out[r][t0+t],
// t < n, as the canonical residue modulo mods[r].Q of
//
//	(Σ_{j<cols} ys[j·stride+t]·w[r][j] + k[t]·nb[r] + seed[r][t0+t]·w[r][cols])·2^-64
//
// the seed term only when seed is not nil — the same value the Go body's
// single REDC closes, so the same words. The caller has checked that
// mods[r].ConvertBody is b for every r against the widest y (cols+1 terms,
// one more with the seed), and that every k[t] is below 2^32 (k is an
// overflow count, at most the source count). The slices are checked here,
// so the assembly reads and writes nothing outside them; ys must hold one
// word past its last staged row, where the DQ body reads the high half of
// the row's last y with one unaligned load. out[r] may be seed[r].
func ConvertLanes(b Body, out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int) {
	if n <= 0 || n%8 != 0 || cols < 1 || stride < n {
		panic("numeric: ConvertLanes block shape")
	}
	mods, w, nb = mods[:len(out)], w[:len(out)], nb[:len(out)]
	_, _ = ys[:(cols-1)*stride+n+1], k[:n]
	wCols := cols
	if seed != nil {
		seed = seed[:len(out)]
		wCols++
	}
	for r := range out {
		_, _ = out[r][t0:t0+n], w[r][:wCols]
		if seed != nil {
			_ = seed[r][t0 : t0+n]
		}
	}
	switch b {
	case BodyIFMA52:
		convertLanes(out, seed, mods, w, nb, ys, k, t0, n, stride, cols)
	case BodyDQ:
		convertDQ(out, seed, mods, w, nb, ys, k, t0, n, stride, cols)
	default:
		panic("numeric: ConvertLanes on the Go body")
	}
}
