package numeric

import "math/bits"

// The IFMA52 lanes of the keyswitch inner product (lanes_amd64.s): eight
// coefficients a ZMM register, each product x·k added as its low and high
// 52-bit halves into a split accumulator L + H·2^52 — no carry and no
// reduction per term — and closed once per run by two radix-2^52 REDCs and
// one correction. DESIGN.md §12 "Lanes" has the derivation of the budget
// below; the output is the canonical residue, as the Go body's is.

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
// paid per call of innerProductLanes.
func laneRunLength(q uint64) int {
	return min(4095, int((1<<52-1-q)/(laneHigh(q, q)+1)))
}

// laneHigh is the most one product adds to H: ⌊(x−1)(w−1)/2^52⌋ for factors
// below x and w.
func laneHigh(x, w uint64) uint64 {
	hi, lo := bits.Mul64(x-1, w-1)
	return hi<<12 | lo>>52
}

// LanesFit reports whether the lanes may sum terms products y·w, every y
// below yMax and every w a residue of m, and close the sum once: m has the
// lanes, yMax ≤ 2^52 so the multiplier reads all of y, and — with no
// residue carried in L, so ⌊L/2^52⌋ < terms — the close's bound
// terms·(h+1) + q < 2^52 holds, h = laneHigh(yMax, q). L wraps at 4096
// terms. It is the selection rule of the RNS conversion's lanes body
// (ConvertLanes), where y is a residue of a source prime that may be wider
// than m; DESIGN.md §12 "Lanes" has the derivation.
func (m Modulus) LanesFit(yMax uint64, terms int) bool {
	if !m.Lanes() || yMax > 1<<52 || terms < 1 || terms > 4095 {
		return false
	}
	return uint64(terms)*(laneHigh(yMax, m.Q)+1)+m.Q < 1<<52
}

// innerProductLanes is VecInnerProductPair on the lanes, for len(out0) a
// nonzero multiple of 8 and at least one digit: run by run of
// laneRunLength(q) digits, each later run folding onto the residues of the
// ones before. The rows are checked here, so the assembly reads no word
// outside them; a permutation entry outside [0, len(out0)) panics.
func (m Modulus) innerProductLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool) {
	n := len(out0)
	out1 = out1[:n]
	if perm != nil {
		perm = perm[:n]
	}
	k0, k1 = k0[:len(x)], k1[:len(x)]
	for d := range x {
		_, _, _ = x[d][:n], k0[d][:n], k1[d][:n]
	}
	qInv := m.QInv & (1<<52 - 1)                   // q^-1 mod 2^52
	r2 := m.MulShoup(1<<40, m.RModQ, m.RModQShoup) // 2^40·2^64 mod q
	run := laneRunLength(m.Q)
	for len(x) > 0 {
		r := min(len(x), run)
		if !innerProductPairLanes(out0, out1, x[:r], k0[:r], k1[:r], perm, add, m.Q, qInv, r2) {
			panic("numeric: permutation entry out of range")
		}
		x, k0, k1, add = x[r:], k0[r:], k1[r:], true
	}
}

// ConvertLanes is the lanes body of an RNS conversion's emit step over one
// staged block of n coefficients, n a nonzero multiple of 8. For each
// destination r it writes out[r][t0+t], t < n, as the canonical residue
// modulo mods[r].Q of
//
//	(Σ_{j<cols} ys[j·stride+t]·w[r][j] + k[t]·nb[r] + seed[r][t0+t]·w[r][cols])·2^-64
//
// the seed term only when seed is not nil — the same value the Go body's
// single REDC closes, so the same words. The caller has checked
// mods[r].LanesFit for every r against the widest y (cols+1 terms, one more
// with the seed); the slices are checked here, so the assembly reads and
// writes nothing outside them. out[r] may be seed[r].
func ConvertLanes(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int) {
	if n <= 0 || n%8 != 0 || cols < 1 || stride < n {
		panic("numeric: ConvertLanes block shape")
	}
	mods, w, nb = mods[:len(out)], w[:len(out)], nb[:len(out)]
	_, _ = ys[:(cols-1)*stride+n], k[:n]
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
	convertLanes(out, seed, mods, w, nb, ys, k, t0, n, stride, cols)
}
