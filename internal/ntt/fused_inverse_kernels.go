package ntt

import (
	"math/bits"

	"poseidon/internal/numeric"
)

// Specialized inverse fused-pass kernels, mirroring fused_kernels.go for the
// Gentleman-Sande direction and, like it, one body for each pass shape the
// default plan runs: the radix-8 first, middle and fold passes and the κ = 1
// or 2 remainder, which at k = 3 is always the fold. Residues stay in the
// [0, 2q) lazy band: each butterfly's sum output takes one conditional
// 2q-correction and its difference output is a lazy Shoup product of
// u−v+2q. The fold kernels run the final pass: their last stage multiplies
// sums by N^-1 and differences by N^-1·psiInv through exact Shoup products,
// leaving outputs fully reduced. Twiddles come straight from the table's
// psiInvBR/psiInvBRShoup (psi/sh below): with `segs` segments in the pass,
// segment g reads the runs at (segs+g)·2^(κ−1−s) for stage s — the mirror of
// the forward indexing.

// --- inverse, κ=3 -----------------------------------------------------------

// invPass8First runs the first 8-point pass: stride is 1 by construction,
// so blocks are contiguous.
func invPass8First(mod numeric.Modulus, a, psi, sh []uint64, segs int) {
	q := mod.Q
	twoQ := q << 1
	for seg := 0; seg < segs; seg++ {
		i := segs + seg
		p4, z4 := psi[4*i:4*i+4:4*i+4], sh[4*i:4*i+4:4*i+4]
		w1, s1, w2, s2 := p4[0], z4[0], p4[1], z4[1]
		w3, s3, w4, s4 := p4[2], z4[2], p4[3], z4[3]
		p2, z2 := psi[2*i:2*i+2:2*i+2], sh[2*i:2*i+2:2*i+2]
		w5, s5, w6, s6 := p2[0], z2[0], p2[1], z2[1]
		w7, s7 := psi[i], sh[i]
		x := a[seg*8 : seg*8+8 : seg*8+8]
		a0, a1, a2, a3 := x[0], x[1], x[2], x[3]
		a4, a5, a6, a7 := x[4], x[5], x[6], x[7]

		// Stage 1 (span 1): (0,1)×w1 (2,3)×w2 (4,5)×w3 (6,7)×w4.
		s := a0 + a1
		if s >= twoQ {
			s -= twoQ
		}
		d := a0 + twoQ - a1
		h, _ := bits.Mul64(d, s1)
		a0, a1 = s, d*w1-h*q
		s = a2 + a3
		if s >= twoQ {
			s -= twoQ
		}
		d = a2 + twoQ - a3
		h, _ = bits.Mul64(d, s2)
		a2, a3 = s, d*w2-h*q
		s = a4 + a5
		if s >= twoQ {
			s -= twoQ
		}
		d = a4 + twoQ - a5
		h, _ = bits.Mul64(d, s3)
		a4, a5 = s, d*w3-h*q
		s = a6 + a7
		if s >= twoQ {
			s -= twoQ
		}
		d = a6 + twoQ - a7
		h, _ = bits.Mul64(d, s4)
		a6, a7 = s, d*w4-h*q

		// Stage 2 (span 2): (0,2)(1,3)×w5; (4,6)(5,7)×w6.
		s = a0 + a2
		if s >= twoQ {
			s -= twoQ
		}
		d = a0 + twoQ - a2
		h, _ = bits.Mul64(d, s5)
		a0, a2 = s, d*w5-h*q
		s = a1 + a3
		if s >= twoQ {
			s -= twoQ
		}
		d = a1 + twoQ - a3
		h, _ = bits.Mul64(d, s5)
		a1, a3 = s, d*w5-h*q
		s = a4 + a6
		if s >= twoQ {
			s -= twoQ
		}
		d = a4 + twoQ - a6
		h, _ = bits.Mul64(d, s6)
		a4, a6 = s, d*w6-h*q
		s = a5 + a7
		if s >= twoQ {
			s -= twoQ
		}
		d = a5 + twoQ - a7
		h, _ = bits.Mul64(d, s6)
		a5, a7 = s, d*w6-h*q

		// Stage 3 (span 4): (0,4)(1,5)(2,6)(3,7)×w7.
		s = a0 + a4
		if s >= twoQ {
			s -= twoQ
		}
		d = a0 + twoQ - a4
		h, _ = bits.Mul64(d, s7)
		a0, a4 = s, d*w7-h*q
		s = a1 + a5
		if s >= twoQ {
			s -= twoQ
		}
		d = a1 + twoQ - a5
		h, _ = bits.Mul64(d, s7)
		a1, a5 = s, d*w7-h*q
		s = a2 + a6
		if s >= twoQ {
			s -= twoQ
		}
		d = a2 + twoQ - a6
		h, _ = bits.Mul64(d, s7)
		a2, a6 = s, d*w7-h*q
		s = a3 + a7
		if s >= twoQ {
			s -= twoQ
		}
		d = a3 + twoQ - a7
		h, _ = bits.Mul64(d, s7)
		a3, a7 = s, d*w7-h*q

		x[0], x[1], x[2], x[3] = a0, a1, a2, a3
		x[4], x[5], x[6], x[7] = a4, a5, a6, a7
	}
}

// invPass8 runs a middle 8-point pass at the given stride.
func invPass8(mod numeric.Modulus, a, psi, sh []uint64, stride, segs int) {
	q := mod.Q
	twoQ := q << 1
	segLen := stride << 3
	for seg := 0; seg < segs; seg++ {
		i := segs + seg
		p4, z4 := psi[4*i:4*i+4:4*i+4], sh[4*i:4*i+4:4*i+4]
		w1, s1, w2, s2 := p4[0], z4[0], p4[1], z4[1]
		w3, s3, w4, s4 := p4[2], z4[2], p4[3], z4[3]
		p2, z2 := psi[2*i:2*i+2:2*i+2], sh[2*i:2*i+2:2*i+2]
		w5, s5, w6, s6 := p2[0], z2[0], p2[1], z2[1]
		w7, s7 := psi[i], sh[i]
		base := seg * segLen
		x0 := a[base : base+stride : base+stride]
		x1 := a[base+stride : base+2*stride : base+2*stride]
		x2 := a[base+2*stride : base+3*stride : base+3*stride]
		x3 := a[base+3*stride : base+4*stride : base+4*stride]
		x4 := a[base+4*stride : base+5*stride : base+5*stride]
		x5 := a[base+5*stride : base+6*stride : base+6*stride]
		x6 := a[base+6*stride : base+7*stride : base+7*stride]
		x7 := a[base+7*stride : base+8*stride : base+8*stride]
		for j := 0; j < stride; j++ {
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
			a4, a5, a6, a7 := x4[j], x5[j], x6[j], x7[j]

			s := a0 + a1
			if s >= twoQ {
				s -= twoQ
			}
			d := a0 + twoQ - a1
			h, _ := bits.Mul64(d, s1)
			a0, a1 = s, d*w1-h*q
			s = a2 + a3
			if s >= twoQ {
				s -= twoQ
			}
			d = a2 + twoQ - a3
			h, _ = bits.Mul64(d, s2)
			a2, a3 = s, d*w2-h*q
			s = a4 + a5
			if s >= twoQ {
				s -= twoQ
			}
			d = a4 + twoQ - a5
			h, _ = bits.Mul64(d, s3)
			a4, a5 = s, d*w3-h*q
			s = a6 + a7
			if s >= twoQ {
				s -= twoQ
			}
			d = a6 + twoQ - a7
			h, _ = bits.Mul64(d, s4)
			a6, a7 = s, d*w4-h*q

			s = a0 + a2
			if s >= twoQ {
				s -= twoQ
			}
			d = a0 + twoQ - a2
			h, _ = bits.Mul64(d, s5)
			a0, a2 = s, d*w5-h*q
			s = a1 + a3
			if s >= twoQ {
				s -= twoQ
			}
			d = a1 + twoQ - a3
			h, _ = bits.Mul64(d, s5)
			a1, a3 = s, d*w5-h*q
			s = a4 + a6
			if s >= twoQ {
				s -= twoQ
			}
			d = a4 + twoQ - a6
			h, _ = bits.Mul64(d, s6)
			a4, a6 = s, d*w6-h*q
			s = a5 + a7
			if s >= twoQ {
				s -= twoQ
			}
			d = a5 + twoQ - a7
			h, _ = bits.Mul64(d, s6)
			a5, a7 = s, d*w6-h*q

			s = a0 + a4
			if s >= twoQ {
				s -= twoQ
			}
			d = a0 + twoQ - a4
			h, _ = bits.Mul64(d, s7)
			a0, a4 = s, d*w7-h*q
			s = a1 + a5
			if s >= twoQ {
				s -= twoQ
			}
			d = a1 + twoQ - a5
			h, _ = bits.Mul64(d, s7)
			a1, a5 = s, d*w7-h*q
			s = a2 + a6
			if s >= twoQ {
				s -= twoQ
			}
			d = a2 + twoQ - a6
			h, _ = bits.Mul64(d, s7)
			a2, a6 = s, d*w7-h*q
			s = a3 + a7
			if s >= twoQ {
				s -= twoQ
			}
			d = a3 + twoQ - a7
			h, _ = bits.Mul64(d, s7)
			a3, a7 = s, d*w7-h*q

			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
			x4[j], x5[j], x6[j], x7[j] = a4, a5, a6, a7
		}
	}
}

// invPass8Fold runs the final 8-point pass (one segment spanning the whole
// vector): stages 1–2 stay lazy, stage 3 folds N^-1 through exact Shoup
// products — sums × N^-1, differences × N^-1·psiInv in place of the stage
// twiddle — so every output is fully reduced.
func invPass8Fold(t *Table, a []uint64, stride int) {
	q := t.Mod.Q
	twoQ := q << 1
	psi, sh := t.psiInvBR[:8:8], t.psiInvBRShoup[:8:8]
	w1, s1, w2, s2 := psi[4], sh[4], psi[5], sh[5]
	w3, s3, w4, s4 := psi[6], sh[6], psi[7], sh[7]
	w5, s5, w6, s6 := psi[2], sh[2], psi[3], sh[3]
	w7, s7 := t.nInvPsiInv, t.nInvPsiInvShoup
	nInv, nInvShoup := t.nInv, t.nInvShoup
	x0 := a[0:stride:stride]
	x1 := a[stride : 2*stride : 2*stride]
	x2 := a[2*stride : 3*stride : 3*stride]
	x3 := a[3*stride : 4*stride : 4*stride]
	x4 := a[4*stride : 5*stride : 5*stride]
	x5 := a[5*stride : 6*stride : 6*stride]
	x6 := a[6*stride : 7*stride : 7*stride]
	x7 := a[7*stride : 8*stride : 8*stride]
	for j := 0; j < stride; j++ {
		a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
		a4, a5, a6, a7 := x4[j], x5[j], x6[j], x7[j]

		s := a0 + a1
		if s >= twoQ {
			s -= twoQ
		}
		d := a0 + twoQ - a1
		h, _ := bits.Mul64(d, s1)
		a0, a1 = s, d*w1-h*q
		s = a2 + a3
		if s >= twoQ {
			s -= twoQ
		}
		d = a2 + twoQ - a3
		h, _ = bits.Mul64(d, s2)
		a2, a3 = s, d*w2-h*q
		s = a4 + a5
		if s >= twoQ {
			s -= twoQ
		}
		d = a4 + twoQ - a5
		h, _ = bits.Mul64(d, s3)
		a4, a5 = s, d*w3-h*q
		s = a6 + a7
		if s >= twoQ {
			s -= twoQ
		}
		d = a6 + twoQ - a7
		h, _ = bits.Mul64(d, s4)
		a6, a7 = s, d*w4-h*q

		s = a0 + a2
		if s >= twoQ {
			s -= twoQ
		}
		d = a0 + twoQ - a2
		h, _ = bits.Mul64(d, s5)
		a0, a2 = s, d*w5-h*q
		s = a1 + a3
		if s >= twoQ {
			s -= twoQ
		}
		d = a1 + twoQ - a3
		h, _ = bits.Mul64(d, s5)
		a1, a3 = s, d*w5-h*q
		s = a4 + a6
		if s >= twoQ {
			s -= twoQ
		}
		d = a4 + twoQ - a6
		h, _ = bits.Mul64(d, s6)
		a4, a6 = s, d*w6-h*q
		s = a5 + a7
		if s >= twoQ {
			s -= twoQ
		}
		d = a5 + twoQ - a7
		h, _ = bits.Mul64(d, s6)
		a5, a7 = s, d*w6-h*q

		// Folding stage: sums × nInv, differences × (nInv·psiInv) = w7.
		x0[j] = mulShoupExact(a0+a4, nInv, nInvShoup, q)
		x4[j] = mulShoupExact(a0+twoQ-a4, w7, s7, q)
		x1[j] = mulShoupExact(a1+a5, nInv, nInvShoup, q)
		x5[j] = mulShoupExact(a1+twoQ-a5, w7, s7, q)
		x2[j] = mulShoupExact(a2+a6, nInv, nInvShoup, q)
		x6[j] = mulShoupExact(a2+twoQ-a6, w7, s7, q)
		x3[j] = mulShoupExact(a3+a7, nInv, nInvShoup, q)
		x7[j] = mulShoupExact(a3+twoQ-a7, w7, s7, q)
	}
}

// mulShoupExact is Modulus.MulShoup with the modulus already in a register.
func mulShoupExact(a, w, ws, q uint64) uint64 {
	hi, _ := bits.Mul64(a, ws)
	r := a*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// --- inverse, κ=2 -----------------------------------------------------------

// invPass4Fold is the remainder fold when log2(N) ≡ 2 (mod 3).
func invPass4Fold(t *Table, a []uint64, stride int) {
	q := t.Mod.Q
	twoQ := q << 1
	w1, s1 := t.psiInvBR[2], t.psiInvBRShoup[2]
	w2, s2 := t.psiInvBR[3], t.psiInvBRShoup[3]
	w3, s3 := t.nInvPsiInv, t.nInvPsiInvShoup
	nInv, nInvShoup := t.nInv, t.nInvShoup
	x0 := a[0:stride:stride]
	x1 := a[stride : 2*stride : 2*stride]
	x2 := a[2*stride : 3*stride : 3*stride]
	x3 := a[3*stride : 4*stride : 4*stride]
	for j := 0; j < stride; j++ {
		a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]

		s := a0 + a1
		if s >= twoQ {
			s -= twoQ
		}
		d := a0 + twoQ - a1
		h, _ := bits.Mul64(d, s1)
		a0, a1 = s, d*w1-h*q
		s = a2 + a3
		if s >= twoQ {
			s -= twoQ
		}
		d = a2 + twoQ - a3
		h, _ = bits.Mul64(d, s2)
		a2, a3 = s, d*w2-h*q

		x0[j] = mulShoupExact(a0+a2, nInv, nInvShoup, q)
		x2[j] = mulShoupExact(a0+twoQ-a2, w3, s3, q)
		x1[j] = mulShoupExact(a1+a3, nInv, nInvShoup, q)
		x3[j] = mulShoupExact(a1+twoQ-a3, w3, s3, q)
	}
}

// --- inverse, κ=1 -----------------------------------------------------------

// invPass2Fold is the remainder fold when log2(N) ≡ 1 (mod 3).
func invPass2Fold(t *Table, a []uint64, stride int) {
	q := t.Mod.Q
	twoQ := q << 1
	w, ws := t.nInvPsiInv, t.nInvPsiInvShoup
	nInv, nInvShoup := t.nInv, t.nInvShoup
	x0 := a[0:stride:stride]
	x1 := a[stride : 2*stride : 2*stride]
	for j := 0; j < stride; j++ {
		u, v := x0[j], x1[j]
		x0[j] = mulShoupExact(u+v, nInv, nInvShoup, q)
		x1[j] = mulShoupExact(u+twoQ-v, w, ws, q)
	}
}
