package numeric

import "math/bits"

// Montgomery multiplication: the elementwise-product path of the lazy
// kernels. REDC with the precomputed q^-1 mod 2^64 replaces the 128-bit
// Barrett sequence (≈5 full multiplications plus a long carry chain) with
// 2 full and 2 low multiplications, roughly halving the scalar cost of
// ring.MulCoeffwise and the encoder/encryptor elementwise loops. All
// methods require odd q (every NTT modulus is an odd prime); they are
// undefined for the degenerate q = 2 modulus.

// MRed returns a·b·2^-64 mod q, fully reduced. Requires a·b < q·2^64
// (satisfied whenever a < 2^63 and b < 2q, in particular for residue
// inputs).
func (m Modulus) MRed(a, b uint64) uint64 {
	r := m.MRedLazy(a, b)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MRedLazy is MRed without the final conditional subtraction: the result
// lies in (0, 2q). Same precondition as MRed.
func (m Modulus) MRedLazy(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	red := lo * m.QInv
	h, _ := bits.Mul64(red, m.Q)
	return hi - h + m.Q
}

// MForm lifts a into Montgomery form: a·2^64 mod q, fully reduced.
func (m Modulus) MForm(a uint64) uint64 {
	return m.MulShoup(a, m.RModQ, m.RModQShoup)
}

// MFormLazy lifts a into Montgomery form lazily: result in [0, 2q).
func (m Modulus) MFormLazy(a uint64) uint64 {
	return m.MulShoupLazy(a, m.RModQ, m.RModQShoup)
}

// IMForm drops a out of Montgomery form: a·2^-64 mod q.
func (m Modulus) IMForm(a uint64) uint64 {
	return m.MRed(a, 1)
}

// MontMul returns (a·b) mod q for residues a, b < q: one lazy Shoup
// multiplication lifts b to Montgomery form, one REDC folds the radix back
// out. Bit-identical to Mul (both are the fully reduced residue) at about
// half its scalar cost.
func (m Modulus) MontMul(a, b uint64) uint64 {
	return m.MRed(a, m.MFormLazy(b))
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

// VecMontMulAdd sets c[i] = (c[i] + a[i]·b[i]) mod q, bit-identical to
// Add(c[i], Mul(a[i], b[i])) — the multiply-accumulate companion of
// VecMontMul.
func (m Modulus) VecMontMulAdd(c, a, b []uint64) {
	q, qInv := m.Q, m.QInv
	r, rs := m.RModQ, m.RModQShoup
	a = a[:len(c)]
	b = b[:len(c)]
	for i := range c {
		bi := b[i]
		bh, _ := bits.Mul64(bi, rs)
		bm := bi*r - bh*q
		hi, lo := bits.Mul64(a[i], bm)
		red := lo * qInv
		h, _ := bits.Mul64(red, q)
		t := hi - h + q
		if t >= q {
			t -= q
		}
		s := c[i] + t
		if s >= q {
			s -= q
		}
		c[i] = s
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
