package numeric

import "math/bits"

// Montgomery multiplication: the elementwise product of the lazy kernels.
// REDC with the precomputed q^-1 mod 2^64 replaces the 128-bit Barrett
// sequence (≈5 full multiplications plus a long carry chain) with 2 full and
// 2 low multiplications, roughly halving the cost of ring.MulCoeffwise and
// PMult. Requires odd q (every NTT modulus is an odd prime); undefined for
// the degenerate q = 2 modulus.

// MForm lifts a into Montgomery form: a·2^64 mod q, fully reduced.
func (m Modulus) MForm(a uint64) uint64 {
	return m.MulShoup(a, m.RModQ, m.RModQShoup)
}

// VecMontMul sets c[i] = a[i]·b[i] mod q for residue vectors, bit-identical
// to elementwise Mul. The fused lift-and-REDC body exceeds the compiler's
// inlining budget as a scalar method, so the hot elementwise loops call this
// vector form, which hoists the modulus constants out of the loop and pays
// the method-call overhead once per vector instead of once per element.
func (m Modulus) VecMontMul(c, a, b []uint64) {
	q, qInv := m.Q, m.QInv
	r, rs := m.RModQ, m.RModQShoup
	a = a[:len(c)]
	b = b[:len(c)]
	for i := range c {
		// Lazy lift: bm ≡ b·2^64 (mod q), bm < 2q.
		bi := b[i]
		bh, _ := bits.Mul64(bi, rs)
		bm := bi*r - bh*q
		// REDC: a·bm < q·2^63 < q·2^64.
		hi, lo := bits.Mul64(a[i], bm)
		red := lo * qInv
		h, _ := bits.Mul64(red, q)
		t := hi - h + q
		if t >= q {
			t -= q
		}
		c[i] = t
	}
}

// VecMulShoup sets c[i] = a[i]·w mod q for the fixed operand w < q with its
// Shoup constant (see MulShoup): the scalar pass of a polynomial multiplied
// by a constant, every residue canonical.
func (m Modulus) VecMulShoup(c, a []uint64, w, wShoup uint64) {
	q := m.Q
	a = a[:len(c)]
	for i := range c {
		hi, _ := bits.Mul64(a[i], wShoup)
		r := a[i]*w - hi*q
		if r >= q {
			r -= q
		}
		c[i] = r
	}
}

// VecMulShoupAdd sets c[i] = (acc[i] + a[i]·w) mod q — the
// multiply-accumulate companion of VecMulShoup; c may be acc.
func (m Modulus) VecMulShoupAdd(c, acc, a []uint64, w, wShoup uint64) {
	q := m.Q
	acc, a = acc[:len(c)], a[:len(c)]
	for i := range c {
		hi, _ := bits.Mul64(a[i], wShoup)
		r := a[i]*w - hi*q
		if r >= q {
			r -= q
		}
		if r += acc[i]; r >= q {
			r -= q
		}
		c[i] = r
	}
}
