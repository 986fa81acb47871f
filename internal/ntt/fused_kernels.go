package ntt

import (
	"math/bits"

	"poseidon/internal/numeric"
)

// Specialized fused-pass kernels: the production inner loops of FusedPlan
// and InverseFusedPlan, one for each pass shape the default plan (k = 3)
// runs — the radix-8 passes and the κ = 1 or 2 remainder pass (forward
// first, inverse the N^-1 fold). Every other shape, which only the lower
// degrees reach, takes the generic body, bit for bit the same. Each kernel
// keeps its whole block in scalar locals (a0…a7 at κ=3) across the fused
// stages, with the segment's twiddles hoisted into locals straight from the
// table's psiBR/psiBRShoup (psi/sh below): stage s of segment g of a pass
// starting at stage parameter m0 reads the contiguous run of 2^s factors at
// (m0+g)·2^s, so no per-plan copy of the twiddles exists. Every slice is
// pre-cut to its exact extent so the inner loops carry no bounds checks, no
// twiddle reloads, and no per-butterfly reduction beyond the single
// conditional band correction the Harvey schedule requires. The Shoup
// products are written out inline (hi,_ := bits.Mul64(x, ws); v := x*w −
// hi*q) because the scalar method form is the one call the compiler must
// not fail to flatten.
//
// Band discipline: forward residues live in [0, 4q) with one conditional
// 2q-correction on each butterfly's u operand, inverse residues in [0, 2q)
// with one correction on the sum; the forward final pass performs the
// deferred ReduceFourQ per coefficient and the inverse final pass folds N^-1
// through exact Shoup products, so outputs are fully reduced and
// bit-identical to the strict reference (strict.go).
//
// On a table NewTable gave a vector body (Table.body), lanes_amd64.s or
// dq_amd64.s runs every uncounted pass of the default plan instead, eight
// coefficients a register.

// --- forward, κ=3 -----------------------------------------------------------

// fwdPass8 runs one non-final 8-point fused pass: blocks gathered at
// `stride`, m0 segments of 8·stride each sharing 7 hoisted twiddles.
func fwdPass8(mod numeric.Modulus, a, psi, sh []uint64, m0, stride int) {
	q := mod.Q
	twoQ := q << 1
	segLen := stride << 3
	for seg := 0; seg < m0; seg++ {
		i := m0 + seg
		w1, s1 := psi[i], sh[i]
		p2, z2 := psi[2*i:2*i+2:2*i+2], sh[2*i:2*i+2:2*i+2]
		w2, s2, w3, s3 := p2[0], z2[0], p2[1], z2[1]
		p4, z4 := psi[4*i:4*i+4:4*i+4], sh[4*i:4*i+4:4*i+4]
		w4, s4, w5, s5 := p4[0], z4[0], p4[1], z4[1]
		w6, s6, w7, s7 := p4[2], z4[2], p4[3], z4[3]
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

			// Stage 1: (0,4) (1,5) (2,6) (3,7) × w1.
			if a0 >= twoQ {
				a0 -= twoQ
			}
			if a1 >= twoQ {
				a1 -= twoQ
			}
			if a2 >= twoQ {
				a2 -= twoQ
			}
			if a3 >= twoQ {
				a3 -= twoQ
			}
			h4, _ := bits.Mul64(a4, s1)
			v4 := a4*w1 - h4*q
			h5, _ := bits.Mul64(a5, s1)
			v5 := a5*w1 - h5*q
			h6, _ := bits.Mul64(a6, s1)
			v6 := a6*w1 - h6*q
			h7, _ := bits.Mul64(a7, s1)
			v7 := a7*w1 - h7*q
			a0, a4 = a0+v4, a0+twoQ-v4
			a1, a5 = a1+v5, a1+twoQ-v5
			a2, a6 = a2+v6, a2+twoQ-v6
			a3, a7 = a3+v7, a3+twoQ-v7

			// Stage 2: (0,2) (1,3) × w2; (4,6) (5,7) × w3.
			if a0 >= twoQ {
				a0 -= twoQ
			}
			if a1 >= twoQ {
				a1 -= twoQ
			}
			if a4 >= twoQ {
				a4 -= twoQ
			}
			if a5 >= twoQ {
				a5 -= twoQ
			}
			h2, _ := bits.Mul64(a2, s2)
			v2 := a2*w2 - h2*q
			h3, _ := bits.Mul64(a3, s2)
			v3 := a3*w2 - h3*q
			h6, _ = bits.Mul64(a6, s3)
			v6 = a6*w3 - h6*q
			h7, _ = bits.Mul64(a7, s3)
			v7 = a7*w3 - h7*q
			a0, a2 = a0+v2, a0+twoQ-v2
			a1, a3 = a1+v3, a1+twoQ-v3
			a4, a6 = a4+v6, a4+twoQ-v6
			a5, a7 = a5+v7, a5+twoQ-v7

			// Stage 3: (0,1)×w4 (2,3)×w5 (4,5)×w6 (6,7)×w7.
			if a0 >= twoQ {
				a0 -= twoQ
			}
			if a2 >= twoQ {
				a2 -= twoQ
			}
			if a4 >= twoQ {
				a4 -= twoQ
			}
			if a6 >= twoQ {
				a6 -= twoQ
			}
			h1, _ := bits.Mul64(a1, s4)
			v1 := a1*w4 - h1*q
			h3, _ = bits.Mul64(a3, s5)
			v3 = a3*w5 - h3*q
			h5, _ = bits.Mul64(a5, s6)
			v5 = a5*w6 - h5*q
			h7, _ = bits.Mul64(a7, s7)
			v7 = a7*w7 - h7*q
			a0, a1 = a0+v1, a0+twoQ-v1
			a2, a3 = a2+v3, a2+twoQ-v3
			a4, a5 = a4+v5, a4+twoQ-v5
			a6, a7 = a6+v7, a6+twoQ-v7

			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
			x4[j], x5[j], x6[j], x7[j] = a4, a5, a6, a7
		}
	}
}

// fwdPass8Last runs the final 8-point pass: stride is 1 by construction
// (blocks are contiguous), and each output takes its single deferred
// normalization before the store.
func fwdPass8Last(mod numeric.Modulus, a, psi, sh []uint64, m0 int) {
	q := mod.Q
	twoQ := q << 1
	for seg := 0; seg < m0; seg++ {
		i := m0 + seg
		w1, s1 := psi[i], sh[i]
		p2, z2 := psi[2*i:2*i+2:2*i+2], sh[2*i:2*i+2:2*i+2]
		w2, s2, w3, s3 := p2[0], z2[0], p2[1], z2[1]
		p4, z4 := psi[4*i:4*i+4:4*i+4], sh[4*i:4*i+4:4*i+4]
		w4, s4, w5, s5 := p4[0], z4[0], p4[1], z4[1]
		w6, s6, w7, s7 := p4[2], z4[2], p4[3], z4[3]
		x := a[seg*8 : seg*8+8 : seg*8+8]
		a0, a1, a2, a3 := x[0], x[1], x[2], x[3]
		a4, a5, a6, a7 := x[4], x[5], x[6], x[7]

		if a0 >= twoQ {
			a0 -= twoQ
		}
		if a1 >= twoQ {
			a1 -= twoQ
		}
		if a2 >= twoQ {
			a2 -= twoQ
		}
		if a3 >= twoQ {
			a3 -= twoQ
		}
		h4, _ := bits.Mul64(a4, s1)
		v4 := a4*w1 - h4*q
		h5, _ := bits.Mul64(a5, s1)
		v5 := a5*w1 - h5*q
		h6, _ := bits.Mul64(a6, s1)
		v6 := a6*w1 - h6*q
		h7, _ := bits.Mul64(a7, s1)
		v7 := a7*w1 - h7*q
		a0, a4 = a0+v4, a0+twoQ-v4
		a1, a5 = a1+v5, a1+twoQ-v5
		a2, a6 = a2+v6, a2+twoQ-v6
		a3, a7 = a3+v7, a3+twoQ-v7

		if a0 >= twoQ {
			a0 -= twoQ
		}
		if a1 >= twoQ {
			a1 -= twoQ
		}
		if a4 >= twoQ {
			a4 -= twoQ
		}
		if a5 >= twoQ {
			a5 -= twoQ
		}
		h2, _ := bits.Mul64(a2, s2)
		v2 := a2*w2 - h2*q
		h3, _ := bits.Mul64(a3, s2)
		v3 := a3*w2 - h3*q
		h6, _ = bits.Mul64(a6, s3)
		v6 = a6*w3 - h6*q
		h7, _ = bits.Mul64(a7, s3)
		v7 = a7*w3 - h7*q
		a0, a2 = a0+v2, a0+twoQ-v2
		a1, a3 = a1+v3, a1+twoQ-v3
		a4, a6 = a4+v6, a4+twoQ-v6
		a5, a7 = a5+v7, a5+twoQ-v7

		if a0 >= twoQ {
			a0 -= twoQ
		}
		if a2 >= twoQ {
			a2 -= twoQ
		}
		if a4 >= twoQ {
			a4 -= twoQ
		}
		if a6 >= twoQ {
			a6 -= twoQ
		}
		h1, _ := bits.Mul64(a1, s4)
		v1 := a1*w4 - h1*q
		h3, _ = bits.Mul64(a3, s5)
		v3 = a3*w5 - h3*q
		h5, _ = bits.Mul64(a5, s6)
		v5 = a5*w6 - h5*q
		h7, _ = bits.Mul64(a7, s7)
		v7 = a7*w7 - h7*q
		a0, a1 = a0+v1, a0+twoQ-v1
		a2, a3 = a2+v3, a2+twoQ-v3
		a4, a5 = a4+v5, a4+twoQ-v5
		a6, a7 = a6+v7, a6+twoQ-v7

		x[0] = reduceFourQ(a0, q, twoQ)
		x[1] = reduceFourQ(a1, q, twoQ)
		x[2] = reduceFourQ(a2, q, twoQ)
		x[3] = reduceFourQ(a3, q, twoQ)
		x[4] = reduceFourQ(a4, q, twoQ)
		x[5] = reduceFourQ(a5, q, twoQ)
		x[6] = reduceFourQ(a6, q, twoQ)
		x[7] = reduceFourQ(a7, q, twoQ)
	}
}

// reduceFourQ is Modulus.ReduceFourQ with the constants already in
// registers — the deferred normalization from [0, 4q) to [0, q).
func reduceFourQ(x, q, twoQ uint64) uint64 {
	if x >= twoQ {
		x -= twoQ
	}
	if x >= q {
		x -= q
	}
	return x
}

// --- forward, κ=2 -----------------------------------------------------------

// fwdPass4 is the remainder pass when log2(N) ≡ 2 (mod 3), run first.
func fwdPass4(mod numeric.Modulus, a, psi, sh []uint64, m0, stride int) {
	q := mod.Q
	twoQ := q << 1
	segLen := stride << 2
	for seg := 0; seg < m0; seg++ {
		i := m0 + seg
		w1, s1 := psi[i], sh[i]
		p2, z2 := psi[2*i:2*i+2:2*i+2], sh[2*i:2*i+2:2*i+2]
		w2, s2, w3, s3 := p2[0], z2[0], p2[1], z2[1]
		base := seg * segLen
		x0 := a[base : base+stride : base+stride]
		x1 := a[base+stride : base+2*stride : base+2*stride]
		x2 := a[base+2*stride : base+3*stride : base+3*stride]
		x3 := a[base+3*stride : base+4*stride : base+4*stride]
		for j := 0; j < stride; j++ {
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]

			// Stage 1: (0,2) (1,3) × w1.
			if a0 >= twoQ {
				a0 -= twoQ
			}
			if a1 >= twoQ {
				a1 -= twoQ
			}
			h2, _ := bits.Mul64(a2, s1)
			v2 := a2*w1 - h2*q
			h3, _ := bits.Mul64(a3, s1)
			v3 := a3*w1 - h3*q
			a0, a2 = a0+v2, a0+twoQ-v2
			a1, a3 = a1+v3, a1+twoQ-v3

			// Stage 2: (0,1)×w2 (2,3)×w3.
			if a0 >= twoQ {
				a0 -= twoQ
			}
			if a2 >= twoQ {
				a2 -= twoQ
			}
			h1, _ := bits.Mul64(a1, s2)
			v1 := a1*w2 - h1*q
			h3, _ = bits.Mul64(a3, s3)
			v3 = a3*w3 - h3*q
			a0, a1 = a0+v1, a0+twoQ-v1
			a2, a3 = a2+v3, a2+twoQ-v3

			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
		}
	}
}

// --- forward, κ=1 -----------------------------------------------------------

// fwdPass2 is a single radix-2 stage in fused-pass clothing — the remainder
// pass when log2(N) ≡ 1 (mod 3), run first where the stride is longest.
func fwdPass2(mod numeric.Modulus, a, psi, sh []uint64, m0, stride int) {
	q := mod.Q
	twoQ := q << 1
	for seg := 0; seg < m0; seg++ {
		w, ws := psi[m0+seg], sh[m0+seg]
		base := seg * stride * 2
		x0 := a[base : base+stride : base+stride]
		x1 := a[base+stride : base+2*stride : base+2*stride]
		for j := 0; j < stride; j++ {
			u := x0[j]
			if u >= twoQ {
				u -= twoQ
			}
			y := x1[j]
			hi, _ := bits.Mul64(y, ws)
			v := y*w - hi*q
			x0[j] = u + v
			x1[j] = u + twoQ - v
		}
	}
}
