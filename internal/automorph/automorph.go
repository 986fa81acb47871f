// Package automorph implements the Galois automorphism X ↦ X^g on
// negacyclic polynomial rings Z_q[X]/(X^N+1), the index-remapping operator
// behind CKKS slot rotation and conjugation.
//
// Two implementations are provided:
//
//   - Naive: the direct per-element index map i ↦ i·g mod N with the
//     negacyclic sign fix-up of Eq. 4 — simple in software, hostile to
//     hardware because consecutive outputs land in arbitrary lanes.
//   - HFAuto: the paper's hardware-friendly reformulation. The length-N
//     vector is viewed as an R×C matrix (C = lane width, R = N/C) and the
//     map factors into a row permutation, a per-column cyclic row shift, a
//     dimension switch, and a column permutation — all sub-vector-granular
//     operations (Section III-B and Fig. 6 of the paper).
//
// Both are bit-exact; property tests enforce equivalence.
package automorph

import (
	"fmt"

	"poseidon/internal/numeric"
)

// Naive applies the automorphism a(X) ↦ a(X^g) mod (X^N+1, q) element by
// element: coefficient i of src contributes ±src[i] to index i·g mod N of
// dst, negated when i·g mod 2N ≥ N. g must be odd; dst and src must not
// alias.
func Naive(dst, src []uint64, g uint64, mod numeric.Modulus) {
	n := uint64(len(src))
	if len(dst) != len(src) {
		panic("automorph: Naive: dst/src length mismatch")
	}
	if g%2 == 0 {
		panic("automorph: Naive: even Galois element")
	}
	twoN := 2 * n
	g %= twoN
	for i := uint64(0); i < n; i++ {
		idx := (i * g) % twoN
		if idx < n {
			dst[idx] = src[i]
		} else {
			dst[idx-n] = mod.Neg(src[i])
		}
	}
}

// HFAuto holds the sub-vector decomposition parameters for a ring degree N
// and lane width C. One HFAuto can serve any odd Galois element via
// Precompute/Apply.
type HFAuto struct {
	N int // ring degree (power of two)
	C int // sub-vector (lane) width, power of two dividing N
	R int // number of sub-vectors, N/C
}

// NewHFAuto validates the decomposition. C must be a power of two dividing
// N; C == N degenerates to a pure column mapping and is allowed.
func NewHFAuto(n, c int) (*HFAuto, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("automorph: N=%d is not a power of two ≥ 2", n)
	}
	if c < 1 || c&(c-1) != 0 {
		return nil, fmt.Errorf("automorph: C=%d is not a power of two ≥ 1", c)
	}
	if n%c != 0 {
		return nil, fmt.Errorf("automorph: C=%d does not divide N=%d", c, n)
	}
	return &HFAuto{N: n, C: c, R: n / c}, nil
}

// Map is the precomputed routing state for one Galois element: everything
// the four pipeline stages need, derived once and reused across all RNS
// limbs and ciphertext components (the paper's "operator reuse").
type Map struct {
	H *HFAuto
	G uint64

	rowDest  []int    // stage 1: row i → row i·g mod R
	rowTag   []uint64 // i·g mod 2R for the sign logic, indexed by dest row
	colShift []int    // stage 2: extra row shift per column, floor(j·g/C) mod R
	colSign  []uint64 // floor(j·g/C) mod 2R per column (sign contribution)
	colDest  []int    // stage 4: column j → column j·g mod C
}

// Precompute builds the routing tables for odd Galois element g.
func (h *HFAuto) Precompute(g uint64) *Map {
	if g%2 == 0 {
		panic("automorph: Precompute: even Galois element")
	}
	twoN := uint64(2 * h.N)
	g %= twoN
	m := &Map{H: h, G: g}
	r := uint64(h.R)
	c := uint64(h.C)

	m.rowDest = make([]int, h.R)
	m.rowTag = make([]uint64, h.R)
	for i := uint64(0); i < r; i++ {
		dest := (i * g) % r
		m.rowDest[i] = int(dest)
		m.rowTag[dest] = (i * g) % (2 * r)
	}
	m.colShift = make([]int, h.C)
	m.colSign = make([]uint64, h.C)
	m.colDest = make([]int, h.C)
	for j := uint64(0); j < c; j++ {
		jg := j * g
		m.colShift[j] = int((jg / c) % r)
		m.colSign[j] = (jg / c) % (2 * r)
		m.colDest[j] = int(jg % c)
	}
	return m
}

// Apply performs the automorphism via the four HFAuto stages. src is read
// as an R×C row-major matrix; dst receives the permuted result. dst and
// src must not alias.
func (m *Map) Apply(dst, src []uint64, mod numeric.Modulus) {
	h := m.H
	if len(src) != h.N || len(dst) != h.N {
		panic("automorph: Apply: dst/src length mismatch")
	}
	r, c := h.R, h.C
	twoR := uint64(2 * r)

	// Stage 1: row mapping row_i → row_(i·g mod R). We write rows into a
	// staging buffer ("FIFOs" in the hardware) in permuted order.
	stage1 := make([]uint64, h.N)
	for i := 0; i < r; i++ {
		copy(stage1[m.rowDest[i]*c:(m.rowDest[i]+1)*c], src[i*c:(i+1)*c])
	}

	// Stage 2: per-column cyclic shift by floor(j·g/C) mod R, fused with
	// the negacyclic sign fix-up: the element originating from row i and
	// column j is negated when (i·g + floor(j·g/C)) mod 2R ≥ R.
	//
	// Stage 3: dimension switch — realized here by writing stage-2 output
	// through the transposed access pattern that stage 4 consumes.
	//
	// Stage 4: column mapping column_j → column_(j·g mod C).
	for j := 0; j < c; j++ {
		shift := m.colShift[j]
		destCol := m.colDest[j]
		sj := m.colSign[j]
		for row := 0; row < r; row++ {
			destRow := row + shift
			if destRow >= r {
				destRow -= r
			}
			v := stage1[row*c+j]
			if (m.rowTag[row]+sj)%twoR >= uint64(r) {
				v = mod.Neg(v)
			}
			dst[destRow*c+destCol] = v
		}
	}
}

// GaloisElementForRotation returns the Galois element g = 5^steps mod 2N
// realizing a rotation of the CKKS slot vector by `steps` positions
// (negative steps rotate the other way). N is the ring degree.
func GaloisElementForRotation(steps int, n int) uint64 {
	twoN := uint64(2 * n)
	// Reduce steps modulo the slot count N/2 (the orbit length of 5).
	half := n / 2
	s := ((steps % half) + half) % half
	g := uint64(1)
	base := uint64(5)
	for e := s; e > 0; e >>= 1 {
		if e&1 == 1 {
			g = g * base % twoN
		}
		base = base * base % twoN
	}
	return g
}

// GaloisElementConjugate returns the element 2N−1 realizing complex
// conjugation of the slot vector.
func GaloisElementConjugate(n int) uint64 { return uint64(2*n - 1) }
