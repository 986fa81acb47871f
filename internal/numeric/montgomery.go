package numeric

import "math/bits"

// Montgomery multiplication: the elementwise product's Go body (VecMontMul,
// VecTensor's squares). REDC with the precomputed q^-1 mod 2^64 replaces the
// 128-bit Barrett sequence (≈5 full multiplications plus a long carry chain)
// with 2 full and 2 low multiplications. Requires odd q (every NTT modulus
// is an odd prime); undefined for the degenerate q = 2 modulus.

// MForm lifts a into Montgomery form: a·2^64 mod q, fully reduced.
func (m Modulus) MForm(a uint64) uint64 {
	return m.MulShoup(a, m.RModQ, m.RModQShoup)
}

// montMulGo is VecMontMul's Go body: the modulus constants hoisted out of
// the loop, montMul inlined a coefficient (as a Modulus method the fused
// lift-and-REDC exceeds the inlining budget).
func (m Modulus) montMulGo(c, a, b []uint64) {
	q, qInv := m.Q, m.QInv
	r, rs := m.RModQ, m.RModQShoup
	a = a[:len(c)]
	b = b[:len(c)]
	for i := range c {
		c[i] = montMul(a[i], b[i], q, qInv, r, rs)
	}
}

// montMul is a·b mod q for residues a, b: b lifted lazily to bm ≡ b·2^64
// (mod q), bm < 2q, then one REDC of a·bm < q·2^63.
func montMul(a, b, q, qInv, r, rs uint64) uint64 {
	bh, _ := bits.Mul64(b, rs)
	bm := b*r - bh*q
	hi, lo := bits.Mul64(a, bm)
	h, _ := bits.Mul64(lo*qInv, q)
	t := hi - h + q
	if t >= q {
		t -= q
	}
	return t
}
