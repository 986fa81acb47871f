package numeric

import "math/bits"

// The elementwise family — the paper's MM and MA operators over whole rows:
// the degree-2 tensor and the plain product (VecTensor, VecMontMul), the
// products by a constant (VecMulShoup, VecMulShoupAdd, VecSubMulShoup,
// VecMulShoupAddSum) and the modular adds (VecAdd, VecAddScalar). Each runs
// on m.Body() where the rows are whole registers (vecBody with one term: n
// a nonzero multiple of 8), else on its Go body, and every body writes the
// canonical residue, so the words are the same whichever ran. On a vector
// body each register-wide step loads all its inputs before it stores, and
// the Go bodies read a coefficient's inputs before they write it, so an
// output row may be any of its input rows. DESIGN.md §12 "Lanes for the
// elementwise family" has the budgets.

// closeConsts returns vector body b's close constants as innerProductVec,
// productVec and the assembly name them: for BodyIFMA52, q^-1 mod 2^52 and
// 2^40·2^64 mod q = 2^104 mod q, the two REDCs' constants; for BodyDQ,
// μ = ⌊2^(64+s)/q⌋ = ⌊⌊2^128/q⌋/2^(64−s)⌋ from the Barrett constant, and
// s = bits(q) − 1.
func (m Modulus) closeConsts(b Body) (c1, c2 uint64) {
	if b == BodyIFMA52 {
		return m.QInv & (1<<52 - 1), m.MulShoup(1<<40, m.RModQ, m.RModQShoup)
	}
	s := uint64(m.Bits - 1)
	return m.BarrettHi<<s | m.BarrettLo>>(64-s), s
}

// VecTensor is the degree-2 ciphertext product of one limb in one pass:
//
//	o0 = a0·b0,  o1 = a0·b1 + a1·b0,  o2 = a1·b1  (mod q)
//
// reading each input once. Every row must span len(o0) words of residues
// below q; an output may alias an input.
func (m Modulus) VecTensor(o0, o1, o2, a0, a1, b0, b1 []uint64) {
	if b := m.vecBody(len(o0), 1); b != BodyGo {
		m.productVec(b, o0, o1, o2, a0, a1, b0, b1)
		return
	}
	m.tensorGo(o0, o1, o2, a0, a1, b0, b1)
}

// VecMontMul sets c[i] = a[i]·b[i] mod q for residue vectors, bit-identical
// to elementwise Mul: the tensor's one-product case on a vector body, the
// Montgomery loop (montMulGo) on Go.
func (m Modulus) VecMontMul(c, a, b []uint64) {
	if body := m.vecBody(len(c), 1); body != BodyGo {
		m.productVec(body, c, nil, nil, a, nil, b, nil)
		return
	}
	m.montMulGo(c, a, b)
}

// productVec is VecTensor on vector body b (BodyIFMA52 or BodyDQ), or with
// o1 nil VecMontMul's c = o0 = a0·b0, for len(o0) a nonzero multiple of 8.
// The rows are checked here, so the assembly reads and writes nothing
// outside them. Two products are inside both bodies' budgets for every
// modulus they take: laneRunLength is at least 12, dqRunLength at least 3.
func (m Modulus) productVec(b Body, o0, o1, o2, a0, a1, b0, b1 []uint64) {
	n := len(o0)
	a0, b0 = a0[:n], b0[:n]
	c1, c2 := m.closeConsts(b)
	if o1 == nil {
		if b == BodyIFMA52 {
			montMulLanes(o0, a0, b0, m.Q, c1, c2)
		} else {
			montMulDQ(o0, a0, b0, m.Q, c1, c2)
		}
		return
	}
	o1, o2, a1, b1 = o1[:n], o2[:n], a1[:n], b1[:n]
	if b == BodyIFMA52 {
		tensorLanes(o0, o1, o2, a0, a1, b0, b1, m.Q, c1, c2)
	} else {
		tensorDQ(o0, o1, o2, a0, a1, b0, b1, m.Q, c1, c2)
	}
}

// tensorGo is VecTensor's Go body: the two squares as Montgomery products,
// the cross terms summed in 128 bits and closed by one Barrett reduction,
// ReduceWide written out — a call a coefficient costs more than it does.
func (m Modulus) tensorGo(o0, o1, o2, a0, a1, b0, b1 []uint64) {
	q, qInv := m.Q, m.QInv
	r, rs := m.RModQ, m.RModQShoup
	bHi, bLo := m.BarrettHi, m.BarrettLo
	n := len(o0)
	o1, o2 = o1[:n], o2[:n]
	a0, a1, b0, b1 = a0[:n], a1[:n], b0[:n], b1[:n]
	for j := range o0 {
		x0, x1, y0, y1 := a0[j], a1[j], b0[j], b1[j]
		hi, lo := bits.Mul64(x0, y1)
		ph, pl := bits.Mul64(x1, y0)
		var cy uint64
		lo, cy = bits.Add64(lo, pl, 0)
		hi += ph + cy
		mh1, _ := bits.Mul64(lo, bLo)
		h2, l2 := bits.Mul64(lo, bHi)
		h3, l3 := bits.Mul64(hi, bLo)
		s, c1 := bits.Add64(mh1, l2, 0)
		_, c2 := bits.Add64(s, l3, 0)
		v := lo - (hi*bHi+h2+h3+c1+c2)*q
		if v >= q {
			v -= q
		}
		if v >= q {
			v -= q
		}
		o0[j] = montMul(x0, y0, q, qInv, r, rs)
		o1[j] = v
		o2[j] = montMul(x1, y1, q, qInv, r, rs)
	}
}

// VecMulShoup sets c[i] = a[i]·w mod q for the fixed operand w < q with its
// Shoup constant (see MulShoup): the scalar pass of a polynomial multiplied
// by a constant, every residue canonical.
func (m Modulus) VecMulShoup(c, a []uint64, w, wShoup uint64) {
	if b := m.vecBody(len(c), 1); b != BodyGo {
		m.shoupVec(b, c, a, nil, nil, nil, w, wShoup)
		return
	}
	m.mulShoupGo(c, a, w, wShoup)
}

// VecMulShoupAdd sets c[i] = (acc[i] + a[i]·w) mod q — the
// multiply-accumulate companion of VecMulShoup; c may be acc.
func (m Modulus) VecMulShoupAdd(c, acc, a []uint64, w, wShoup uint64) {
	if b := m.vecBody(len(c), 1); b != BodyGo {
		m.shoupVec(b, c, a, nil, acc, nil, w, wShoup)
		return
	}
	m.mulShoupAddGo(c, acc, a, w, wShoup)
}

// VecSubMulShoup sets c[i] = (a[i] − s[i])·w mod q — Rescale's tail, the
// difference and the product by q_l^-1 in one pass; c may be a or s.
func (m Modulus) VecSubMulShoup(c, a, s []uint64, w, wShoup uint64) {
	if b := m.vecBody(len(c), 1); b != BodyGo {
		m.shoupVec(b, c, a, s, nil, nil, w, wShoup)
		return
	}
	m.subMulShoupGo(c, a, s, w, wShoup)
}

// VecMulShoupAddSum sets c[i] = (acc[i] + s[i] + a[i]·w) mod q — the
// keyswitch close, ModDown's product by P^-1 and the add into the sum
// target in one pass; c may be acc or s.
func (m Modulus) VecMulShoupAddSum(c, acc, s, a []uint64, w, wShoup uint64) {
	if b := m.vecBody(len(c), 1); b != BodyGo {
		m.shoupVec(b, c, a, nil, acc, s, w, wShoup)
		return
	}
	m.mulShoupAddSumGo(c, acc, s, a, w, wShoup)
}

// shoupVec is the products by a constant on vector body b (BodyIFMA52 or
// BodyDQ), for len(c) a nonzero multiple of 8:
//
//	c = (a − sub)·w + add0 + add1  (mod q)
//
// each of sub, add0 and add1 left out when nil — the assembly then takes it
// as zero: the difference is skipped, an add read from a's row under an
// empty mask. The rows are checked here.
// The IFMA52 body takes the Shoup factor over 2^52, wShoup >> 12 =
// ⌊w·2^52/q⌋, as ntt's passes do.
func (m Modulus) shoupVec(b Body, c, a, sub, add0, add1 []uint64, w, wShoup uint64) {
	n := len(c)
	a = a[:n]
	var has uint64
	if sub != nil {
		sub, has = sub[:n], has|0xff
	} else {
		sub = a
	}
	if add0 != nil {
		add0, has = add0[:n], has|0xff<<8
	} else {
		add0 = a
	}
	if add1 != nil {
		add1, has = add1[:n], has|0xff<<16
	} else {
		add1 = a
	}
	if b == BodyIFMA52 {
		shoupLanes(c, a, sub, add0, add1, w, wShoup>>12, m.Q, has)
	} else {
		shoupDQ(c, a, sub, add0, add1, w, wShoup, m.Q, has)
	}
}

// mulShoupGo is VecMulShoup's Go body.
func (m Modulus) mulShoupGo(c, a []uint64, w, wShoup uint64) {
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

// mulShoupAddGo is VecMulShoupAdd's Go body.
func (m Modulus) mulShoupAddGo(c, acc, a []uint64, w, wShoup uint64) {
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

// subMulShoupGo is VecSubMulShoup's Go body.
func (m Modulus) subMulShoupGo(c, a, s []uint64, w, wShoup uint64) {
	q := m.Q
	a, s = a[:len(c)], s[:len(c)]
	for i := range c {
		d := a[i] - s[i]
		if d > a[i] { // borrow
			d += q
		}
		hi, _ := bits.Mul64(d, wShoup)
		r := d*w - hi*q
		if r >= q {
			r -= q
		}
		c[i] = r
	}
}

// mulShoupAddSumGo is VecMulShoupAddSum's Go body.
func (m Modulus) mulShoupAddSumGo(c, acc, s, a []uint64, w, wShoup uint64) {
	q := m.Q
	acc, s, a = acc[:len(c)], s[:len(c)], a[:len(c)]
	for i := range c {
		hi, _ := bits.Mul64(a[i], wShoup)
		r := a[i]*w - hi*q
		if r >= q {
			r -= q
		}
		if r += acc[i]; r >= q {
			r -= q
		}
		if r += s[i]; r >= q {
			r -= q
		}
		c[i] = r
	}
}

// VecAdd sets c[i] = (a[i] + b[i]) mod q for residues a, b; c may be a or
// b.
func (m Modulus) VecAdd(c, a, b []uint64) {
	n := len(c)
	a, b = a[:n], b[:n]
	if m.vecBody(n, 1) != BodyGo {
		addLanes(c, a, b, m.Q)
		return
	}
	m.addGo(c, a, b)
}

// VecAddScalar sets c[i] = (a[i] + s) mod q for residues a and s; c may be
// a.
func (m Modulus) VecAddScalar(c, a []uint64, s uint64) {
	a = a[:len(c)]
	if m.vecBody(len(c), 1) != BodyGo {
		addScalarLanes(c, a, s, m.Q)
		return
	}
	m.addScalarGo(c, a, s)
}

// addGo is VecAdd's Go body.
func (m Modulus) addGo(c, a, b []uint64) {
	a, b = a[:len(c)], b[:len(c)]
	for i := range c {
		c[i] = m.Add(a[i], b[i])
	}
}

// addScalarGo is VecAddScalar's Go body.
func (m Modulus) addScalarGo(c, a []uint64, s uint64) {
	a = a[:len(c)]
	for i := range c {
		c[i] = m.Add(a[i], s)
	}
}
