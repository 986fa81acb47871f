package ring

import "math/bits"

// NTT-domain automorphism, the one automorphism the library runs. In the
// evaluation domain the Galois map X ↦ X^g is a pure permutation of the point
// values (no sign fix-up): output slot j holds the evaluation at ψ^{e_j·g},
// which is input slot i with e_i = e_j·g mod 2N, where e_i = 2·brv(i)+1
// indexes the bit-reversed CT output layout. Key generation permutes the
// secret's NTT image with it, and rotation hoisting permutes decomposed
// keyswitch digits after their (shared) forward NTT. The permutation depends
// on N and g alone; each ring keeps its own table (Ring.perms), so the tables
// of a parameter set go when it does.

// nttPermutation returns perm with dst[j] = src[perm[j]], building it on the
// element's first use.
func (r *Ring) nttPermutation(g uint64) []int {
	n := r.N
	twoN := uint64(2 * n)
	g %= twoN
	r.permMu.RLock()
	perm, ok := r.perms[g]
	r.permMu.RUnlock()
	if ok {
		return perm
	}
	logn := uint(r.LogN)
	perm = make([]int, n)
	for j := 0; j < n; j++ {
		ej := 2*(bits.Reverse64(uint64(j))>>(64-logn)) + 1
		t := (ej * g) % twoN
		i := bits.Reverse64((t-1)/2) >> (64 - logn)
		perm[j] = int(i)
	}
	r.permMu.Lock()
	if first, ok := r.perms[g]; ok {
		perm = first // a concurrent builder won: every caller shares one table
	} else {
		r.perms[g] = perm
	}
	r.permMu.Unlock()
	return perm
}

// AutomorphismNTT applies X ↦ X^g to an NTT-domain polynomial as a pure
// slot permutation. dst and src must not alias.
func (r *Ring) AutomorphismNTT(dst, src *Poly, g uint64) {
	limbs := r.check(dst, src)
	if !src.IsNTT {
		panic("ring: AutomorphismNTT requires NTT domain")
	}
	if g%2 == 0 {
		panic("ring: AutomorphismNTT: even Galois element")
	}
	perm := r.nttPermutation(g)
	for i := 0; i < limbs; i++ {
		ApplyPermutationNTT(dst.Coeffs[i], src.Coeffs[i], perm)
	}
	dst.IsNTT = true
}

// ApplyPermutationNTT applies a precomputed NTT-domain Galois permutation to
// a raw limb vector (used by the hoisted keyswitch on extended digits).
func ApplyPermutationNTT(dst, src []uint64, perm []int) {
	for j, p := range perm {
		dst[j] = src[p]
	}
}

// NTTGaloisPermutation exposes the permutation for element g (for callers
// operating on raw limb slices). It depends on N and g alone, so one ring's
// table serves every ring of its degree — RingQ's serves the P limbs too;
// hot loops resolve it once and keep the slice.
func (r *Ring) NTTGaloisPermutation(g uint64) []int { return r.nttPermutation(g) }
