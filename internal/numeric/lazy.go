package numeric

import "math/bits"

// Lazy (redundant) residue arithmetic: operations that return values in
// [0, 2q) or [0, 4q) instead of fully reduced residues, deferring the final
// normalization. This is the software counterpart of the paper's deferred
// "fused TAM" reductions — q < 2^61 (MaxModulusBits) guarantees 4q and all
// lazy sums below fit a uint64 with headroom. The Harvey NTT butterflies
// and the fused inner-product accumulators build on these primitives.

// ReduceFourQ normalizes a value in [0, 4q) to [0, q) with two conditional
// subtractions — the single deferred normalization the lazy forward NTT
// pays per coefficient.
func (m Modulus) ReduceFourQ(a uint64) uint64 {
	twoQ := m.Q << 1
	if a >= twoQ {
		a -= twoQ
	}
	if a >= m.Q {
		a -= m.Q
	}
	return a
}

// MaxLazyProducts is the largest number of residue products (q < 2^61)
// that VecMACWide can accumulate in 128 bits without overflow
// (64·(2^61−1)^2 < 2^128); accumulators that may exceed it must fold
// (ReduceWide) and restart.
const MaxLazyProducts = 64

// VecMACWide accumulates a[j]·b[j] onto the 128-bit accumulator columns
// (hi[j], lo[j]) — the 128-bit multiply-accumulate of the fused keyswitch
// and linear-transform inner products. Pure integer arithmetic, no
// reductions: the caller budgets MaxLazyProducts terms between folds.
// One plain loop over slices re-cut to a common length: the compiler drops
// every bounds check and keeps the whole body in registers, which no
// hand-unrolled form of it did.
func VecMACWide(hi, lo, a, b []uint64) {
	n := len(hi)
	lo = lo[:n]
	a = a[:n]
	b = b[:n]
	for i := range hi {
		ph, pl := bits.Mul64(a[i], b[i])
		var c uint64
		lo[i], c = bits.Add64(lo[i], pl, 0)
		hi[i] += ph + c
	}
}

// VecMACWidePair accumulates a0[j]·b[j] into (hi0,lo0) and a1[j]·b[j] into
// (hi1,lo1) in one pass. The shared multiplicand b is loaded once for both
// rows and the two independent carry chains interleave, which hides the
// 64×64-bit multiply latency the single-row kernel exposes — exactly the
// shape of the linear-transform MAC stage, where every plaintext diagonal
// multiplies both ciphertext components. Element-wise the arithmetic is
// identical to two VecMACWide calls.
func VecMACWidePair(hi0, lo0, hi1, lo1, a0, a1, b []uint64) {
	n := len(hi0)
	lo0 = lo0[:n]
	hi1 = hi1[:n]
	lo1 = lo1[:n]
	a0 = a0[:n]
	a1 = a1[:n]
	b = b[:n]
	for i, m := range b {
		p0h, p0l := bits.Mul64(a0[i], m)
		p1h, p1l := bits.Mul64(a1[i], m)
		var c uint64
		lo0[i], c = bits.Add64(lo0[i], p0l, 0)
		hi0[i] += p0h + c
		lo1[i], c = bits.Add64(lo1[i], p1l, 0)
		hi1[i] += p1h + c
	}
}

// VecReduceWide sets out[j] = (hi[j]·2^64 + lo[j]) mod q — the single
// deferred Barrett reduction per coefficient that closes a fused inner
// product. The ReduceWide body is written out with hoisted constants so the
// loop carries no per-element method-call overhead.
func (m Modulus) VecReduceWide(out, hi, lo []uint64) {
	q, bHi, bLo := m.Q, m.BarrettHi, m.BarrettLo
	n := len(out)
	hi = hi[:n]
	lo = lo[:n]
	for j := range out {
		h, l := hi[j], lo[j]
		mh1, _ := bits.Mul64(l, bLo)
		h2, l2 := bits.Mul64(l, bHi)
		h3, l3 := bits.Mul64(h, bLo)
		l4 := h * bHi
		s, c1 := bits.Add64(mh1, l2, 0)
		_, c2 := bits.Add64(s, l3, 0)
		t := l4 + h2 + h3 + c1 + c2
		r := l - t*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		out[j] = r
	}
}

// VecReduceWideAdd sets out[j] = (out[j] + (hi[j]·2^64 + lo[j])) mod q —
// VecReduceWide fused with the modular add that folds a reduced accumulator
// bank into a running residue sum, saving one memory pass in the
// giant-step accumulation of double-hoisted linear transforms.
func (m Modulus) VecReduceWideAdd(out, hi, lo []uint64) {
	q, bHi, bLo := m.Q, m.BarrettHi, m.BarrettLo
	n := len(out)
	hi = hi[:n]
	lo = lo[:n]
	for j := range out {
		h, l := hi[j], lo[j]
		mh1, _ := bits.Mul64(l, bLo)
		h2, l2 := bits.Mul64(l, bHi)
		h3, l3 := bits.Mul64(h, bLo)
		l4 := h * bHi
		s, c1 := bits.Add64(mh1, l2, 0)
		_, c2 := bits.Add64(s, l3, 0)
		t := l4 + h2 + h3 + c1 + c2
		r := l - t*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		r += out[j]
		if r >= q {
			r -= q
		}
		out[j] = r
	}
}

// VecFoldWide reduces each 128-bit accumulator column to its residue in
// place — lo[j] becomes the column mod q, hi[j] becomes zero — restarting
// the MaxLazyProducts budget while preserving the accumulated value mod q.
func (m Modulus) VecFoldWide(hi, lo []uint64) {
	m.VecReduceWide(lo, hi, lo)
	for j := range hi {
		hi[j] = 0
	}
}

// VecInnerProductPair is the keyswitch inner product of one RNS limb, summed
// in registers: for every coefficient j
//
//	out0[j] = Σ_d x[d][perm[j]]·k0[d][j] mod q
//	out1[j] = Σ_d x[d][perm[j]]·k1[d][j] mod q
//
// with both 128-bit sums carried through the digit loop in registers, closed
// by one Barrett reduction each and stored once — no accumulator row ever
// reaches memory. perm gathers the digit rows through an NTT-domain Galois
// permutation in the same pass (nil reads them in order); add folds the
// reduced sums onto the residues already in out0/out1 instead of overwriting
// them. Every x/k0/k1 row must span len(out0) words and hold residues below
// q; out rows must not alias an input row. A run of MaxLazyProducts−1 digits
// is the most one 128-bit sum may hold, so longer chains are closed run by
// run, each later run folding onto the residue of the ones before — the
// result is the canonical residue of the whole sum either way.
//
// Where m has a vector body (Body), a length that is a nonzero multiple of
// 8 runs eight coefficients a register on it (lanes.go, vecBody) with the
// same output; perm entries must then lie in [0, len(out0)).
func (m Modulus) VecInnerProductPair(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool) {
	if b := m.vecBody(len(out0), len(x)); b != BodyGo {
		m.innerProductVec(b, out0, out1, x, k0, k1, perm, add)
		return
	}
	m.innerProductGo(out0, out1, x, k0, k1, perm, add)
}

// innerProductGo is the Go body of VecInnerProductPair, run by run of
// innerProductRun digits: every modulus and length the vector bodies do not
// take runs it, and the tests compare them against it.
func (m Modulus) innerProductGo(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool) {
	for len(x) > innerProductRun {
		m.innerProductRun(out0, out1, x[:innerProductRun], k0[:innerProductRun], k1[:innerProductRun], perm, add)
		x, k0, k1, add = x[innerProductRun:], k0[innerProductRun:], k1[innerProductRun:], true
	}
	m.innerProductRun(out0, out1, x, k0, k1, perm, add)
}

// VecMACPair is a linear transform's plaintext MAC: for every coefficient j
//
//	out0[j] (+)= Σ_k pt[k][j]·r0[k][j] mod q    out1[j] (+)= Σ_k pt[k][j]·r1[k][j] mod q
//
// — VecInnerProductPair's value with the plaintext rows as the shared
// operand, added onto out0/out1 with add. On a vector body (vecBody) the
// terms go to VecInnerProductPair in calls of ltMacTerms, each later call
// adding onto the residues of the ones before; on Go they run the
// column-blocked loop, macPairBlocked. Every sum closes to its canonical
// residue, so the words are the same whichever body ran.
func (m Modulus) VecMACPair(out0, out1 []uint64, pt, r0, r1 [][]uint64, add bool) {
	if m.vecBody(len(out0), len(pt)) == BodyGo {
		m.macPairBlocked(out0, out1, pt, r0, r1, add)
		return
	}
	for lo := 0; lo < len(pt); lo += ltMacTerms {
		hi := min(lo+ltMacTerms, len(pt))
		m.VecInnerProductPair(out0, out1, pt[lo:hi], r0[lo:hi], r1[lo:hi], nil, add)
		add = true
	}
}

// ltMacTerms is how many terms VecMACPair hands a vector body a call. A
// call reads its 3·terms rows side by side, eight coefficients of each a
// step; past a few dozen such streams the loads of rows from beyond L2
// stall, and a group of 16 to 64 diagonals summed in one call ran 1.3–2.8×
// slower a term than in calls of 8 (EXPERIMENTS.md "DQ MAC — before/after").
const ltMacTerms = 8

// macBlock is the column-block width of macPairBlocked: the four 128-bit
// accumulator half-rows of a block (hi/lo × out0/out1) occupy
// 4·macBlock·8 B = 16 KiB of its frame, which stays L1-resident while the
// terms stream through it.
const macBlock = 512

// macPairBlocked is VecMACPair's Go body, summed column block by column
// block. Streaming full-length 128-bit accumulator rows (hi+lo, read+write,
// both outputs) per term made the MAC memory-bound — roughly 4× the
// compulsory traffic. A block's accumulators live on this frame instead:
// they stay L1-resident across every term, the paired MAC kernel loads each
// plaintext block once for both rows, a fold restarts the 128-bit budget
// every MaxLazyProducts−1 terms, and the block is reduced into out0/out1
// (added onto them with add) before the next one starts.
func (m Modulus) macPairBlocked(out0, out1 []uint64, pt, r0, r1 [][]uint64, add bool) {
	n := len(out0)
	out1 = out1[:n]
	r0, r1 = r0[:len(pt)], r1[:len(pt)]
	for jlo := 0; jlo < n; jlo += macBlock {
		jhi := min(jlo+macBlock, n)
		var wide [4][macBlock]uint64
		bh0, bl0 := wide[0][:jhi-jlo], wide[1][:jhi-jlo]
		bh1, bl1 := wide[2][:jhi-jlo], wide[3][:jhi-jlo]
		for k := range pt {
			if k > 0 && k%(MaxLazyProducts-1) == 0 {
				m.VecFoldWide(bh0, bl0)
				m.VecFoldWide(bh1, bl1)
			}
			VecMACWidePair(bh0, bl0, bh1, bl1, r0[k][jlo:jhi], r1[k][jlo:jhi], pt[k][jlo:jhi])
		}
		if add {
			m.VecReduceWideAdd(out0[jlo:jhi], bh0, bl0)
			m.VecReduceWideAdd(out1[jlo:jhi], bh1, bl1)
		} else {
			m.VecReduceWide(out0[jlo:jhi], bh0, bl0)
			m.VecReduceWide(out1[jlo:jhi], bh1, bl1)
		}
	}
}

const innerProductRun = MaxLazyProducts - 1

// innerProductRun is VecInnerProductPair on at most innerProductRun digits.
// The row headers are copied to the frame first: indexing a local array
// keeps them out of reach of the stores to out0/out1, so they are not
// re-read from the caller's slices on every coefficient. Digits are taken
// two at a time, which gives four independent multiply/carry chains per
// coefficient.
func (m Modulus) innerProductRun(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool) {
	q, bHi, bLo := m.Q, m.BarrettHi, m.BarrettLo
	n := len(out0)
	out1 = out1[:n]
	if perm != nil {
		perm = perm[:n]
	}
	var xs, as, bs [innerProductRun][]uint64
	nd := copy(xs[:], x)
	for d := 0; d < nd; d++ {
		as[d], bs[d] = k0[d][:n], k1[d][:n]
	}
	for j := 0; j < n; j++ {
		p := j
		if perm != nil {
			p = perm[j]
		}
		var h0, l0, h1, l1, c uint64
		d := 0
		for ; d+2 <= nd; d += 2 {
			u, v := xs[d][p], xs[d+1][p]
			ph, pl := bits.Mul64(u, as[d][j])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(u, bs[d][j])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			ph, pl = bits.Mul64(v, as[d+1][j])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(v, bs[d+1][j])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
		}
		if d < nd {
			u := xs[d][p]
			ph, pl := bits.Mul64(u, as[d][j])
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(u, bs[d][j])
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
		}
		// The ReduceWide body, written out twice: a call per coefficient
		// costs more than the reduction it makes.
		mh1, _ := bits.Mul64(l0, bLo)
		h2, l2 := bits.Mul64(l0, bHi)
		h3, l3 := bits.Mul64(h0, bLo)
		s, c1 := bits.Add64(mh1, l2, 0)
		_, c2 := bits.Add64(s, l3, 0)
		r0 := l0 - (h0*bHi+h2+h3+c1+c2)*q
		if r0 >= q {
			r0 -= q
		}
		if r0 >= q {
			r0 -= q
		}
		mh1, _ = bits.Mul64(l1, bLo)
		h2, l2 = bits.Mul64(l1, bHi)
		h3, l3 = bits.Mul64(h1, bLo)
		s, c1 = bits.Add64(mh1, l2, 0)
		_, c2 = bits.Add64(s, l3, 0)
		r1 := l1 - (h1*bHi+h2+h3+c1+c2)*q
		if r1 >= q {
			r1 -= q
		}
		if r1 >= q {
			r1 -= q
		}
		if add {
			if r0 += out0[j]; r0 >= q {
				r0 -= q
			}
			if r1 += out1[j]; r1 >= q {
				r1 -= q
			}
		}
		out0[j], out1[j] = r0, r1
	}
}
