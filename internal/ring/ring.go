// Package ring provides the RNS polynomial arithmetic layer: polynomials in
// Z_Q[X]/(X^N+1) with Q a product of NTT-friendly primes, stored as one
// residue vector per prime ("limb"). All Poseidon operators — MA, MM,
// NTT/INTT, Automorphism — act limb-wise on this representation. A ring owns
// what its parameter set needs beside the moduli — the NTT tables, the
// NTT-domain Galois permutations, the HFAuto routing maps — and draws no
// scratch: its operations write into the polys they are given. Scratch is
// an Arena's, which the parameter set owns; all of it lives and dies with
// the parameter set.
package ring

import (
	"fmt"
	"math/big"
	"slices"
	"sync"

	"poseidon/internal/automorph"
	"poseidon/internal/fault"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
)

// Ring bundles the modulus chain and per-prime NTT tables for degree N.
// Every limb transform runs the tables' fused plan and every elementwise
// product the Montgomery kernels; nothing selects another body. Construct
// once, install a fault injector if wanted (a plain field every hot path
// reads without synchronization), then share: once a second goroutine can
// see the ring, its methods are safe for concurrent use and
// SetFaultInjector must not be called.
type Ring struct {
	N      int
	LogN   int
	Moduli []numeric.Modulus
	Tables []*ntt.Table

	// HF caches the HFAuto routing maps of the paper's sub-vector
	// automorphism core. No library path runs it — every automorphism is an
	// NTT-domain permutation (AutomorphismNTT) — it serves bench and the
	// tests.
	HF *HFCache

	// perms caches the NTT-domain Galois permutation of each element g,
	// built on first use (automorphism_ntt.go). Read-mostly: lookups take
	// the read lock, so limb workers never serialise on it.
	permMu sync.RWMutex
	perms  map[uint64][]int

	// injector, when non-nil, corrupts limbs at the ring's injection points
	// (the datapath loads feeding each NTT/INTT limb transform) according
	// to its armed fault schedule. Nil in production: the hot paths pay one
	// pointer compare. See SetFaultInjector.
	injector *fault.Injector
}

// HFCache caches precomputed HFAuto routing maps per Galois element.
// Routing is data-independent, so one map serves every limb and ciphertext.
// Safe for concurrent use: lookups take a read lock, first-time builds a
// write lock.
type HFCache struct {
	h    *automorph.HFAuto
	mu   sync.RWMutex
	maps map[uint64]*automorph.Map
}

// NewRing constructs a ring of degree n over the given prime moduli. Every
// modulus must satisfy q ≡ 1 (mod 2n). The HFAuto sub-vector width is
// min(512, n).
func NewRing(n int, moduli []uint64) (*Ring, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	r := &Ring{N: n, perms: map[uint64][]int{}}
	for n>>uint(r.LogN+1) > 0 {
		r.LogN++
	}
	if 1<<uint(r.LogN) != n {
		return nil, fmt.Errorf("ring: N=%d is not a power of two", n)
	}
	seen := map[uint64]bool{}
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		tab, err := ntt.NewTable(n, q)
		if err != nil {
			return nil, fmt.Errorf("ring: modulus %d: %w", q, err)
		}
		r.Moduli = append(r.Moduli, tab.Mod)
		r.Tables = append(r.Tables, tab)
	}
	hf, err := automorph.NewHFAuto(n, min(512, n))
	if err != nil {
		return nil, err
	}
	r.HF = &HFCache{h: hf, maps: make(map[uint64]*automorph.Map)}
	return r, nil
}

// FusionDegree returns the degree the limb transforms run at,
// ntt.DefaultFusionDegree.
func (r *Ring) FusionDegree() int { return ntt.DefaultFusionDegree }

// SetFaultInjector installs (or, with nil, removes) a fault injector on the
// ring's injection points. Call before sharing the ring across goroutines:
// the pointer is read without synchronization on every hot path (the
// injector itself is internally locked).
func (r *Ring) SetFaultInjector(in *fault.Injector) { r.injector = in }

// FaultInjector returns the installed injector (nil when faults are off).
func (r *Ring) FaultInjector() *fault.Injector { return r.injector }

// ForwardLimb / InverseLimb run one limb's transform (exported for the
// evaluator, whose pipelines drive per-limb transforms directly); every ring
// transform funnels through them, after the fault injector's read hook.
func (r *Ring) ForwardLimb(i int, c []uint64) {
	if r.injector != nil {
		r.injector.OnLimbRead(fault.SiteNTT, i, c)
	}
	r.Tables[i].Forward(c)
}

func (r *Ring) InverseLimb(i int, c []uint64) {
	if r.injector != nil {
		r.injector.OnLimbRead(fault.SiteINTT, i, c)
	}
	r.Tables[i].Inverse(c)
}

// Get returns (building if needed) the routing map for Galois element g.
// Safe for concurrent use.
func (c *HFCache) Get(g uint64) *automorph.Map {
	c.mu.RLock()
	m, ok := c.maps[g]
	c.mu.RUnlock()
	if ok {
		return m
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.maps[g]; ok {
		return m
	}
	m = c.h.Precompute(g)
	c.maps[g] = m
	return m
}

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo the i-th
// prime. IsNTT tracks the representation domain. A Poly created at level l
// carries l+1 limbs.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// NewPoly allocates a zero polynomial with `limbs` limbs in a single
// backing array. The result is NOT arena-tracked: use for long-lived values
// (keys, ciphertexts); scratch should come from an Arena.
func (r *Ring) NewPoly(limbs int) *Poly {
	if limbs < 1 || limbs > len(r.Moduli) {
		panic(fmt.Sprintf("ring: limbs=%d out of range [1,%d]", limbs, len(r.Moduli)))
	}
	return newPoly(r.N, limbs)
}

// Level returns the polynomial's level (limbs − 1).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	q := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	backing := make([]uint64, len(p.Coeffs)*len(p.Coeffs[0]))
	n := len(p.Coeffs[0])
	for i := range p.Coeffs {
		q.Coeffs[i] = backing[i*n : (i+1)*n]
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	return q
}

// Equal reports deep equality including representation domain.
func (p *Poly) Equal(o *Poly) bool {
	if p.IsNTT != o.IsNTT || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if !slices.Equal(p.Coeffs[i], o.Coeffs[i]) {
			return false
		}
	}
	return true
}

// DropLimb removes the last limb in place. The dropped row stays in the
// slice's capacity: an arena poly returns to the class it was drawn from.
func (p *Poly) DropLimb() {
	if len(p.Coeffs) == 1 {
		panic("ring: cannot drop the last limb")
	}
	p.Coeffs = p.Coeffs[:len(p.Coeffs)-1]
}

func (r *Ring) check(ps ...*Poly) int {
	limbs := len(ps[0].Coeffs)
	for _, p := range ps {
		if len(p.Coeffs) != limbs {
			panic(fmt.Sprintf("ring: limb mismatch %d vs %d", len(p.Coeffs), limbs))
		}
		for i := range p.Coeffs {
			if len(p.Coeffs[i]) != r.N {
				panic("ring: coefficient length mismatch")
			}
		}
	}
	return limbs
}

// Add computes out = a + b limb-wise (the MA operator).
func (r *Ring) Add(out, a, b *Poly) {
	limbs := r.check(out, a, b)
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		oc, ac, bc := out.Coeffs[i], a.Coeffs[i], b.Coeffs[i]
		for j := range oc {
			oc[j] = mod.Add(ac[j], bc[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// Sub computes out = a − b limb-wise.
func (r *Ring) Sub(out, a, b *Poly) {
	limbs := r.check(out, a, b)
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		oc, ac, bc := out.Coeffs[i], a.Coeffs[i], b.Coeffs[i]
		for j := range oc {
			oc[j] = mod.Sub(ac[j], bc[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// Neg computes out = −a limb-wise.
func (r *Ring) Neg(out, a *Poly) {
	limbs := r.check(out, a)
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		oc, ac := out.Coeffs[i], a.Coeffs[i]
		for j := range oc {
			oc[j] = mod.Neg(ac[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffwise computes out = a ⊙ b limb-wise (the MM operator). Both
// operands must be in the NTT domain for this to realize a ring product.
func (r *Ring) MulCoeffwise(out, a, b *Poly) {
	limbs := r.check(out, a, b)
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffwise requires NTT-domain operands")
	}
	for i := 0; i < limbs; i++ {
		r.Moduli[i].VecMontMul(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	}
	out.IsNTT = true
}

// MulCoeffwiseAdd computes out += a ⊙ b limb-wise (NTT domain).
func (r *Ring) MulCoeffwiseAdd(out, a, b *Poly) {
	limbs := r.check(out, a, b)
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffwiseAdd requires NTT-domain operands")
	}
	for i := 0; i < limbs; i++ {
		r.Moduli[i].VecMontMulAdd(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	}
	out.IsNTT = true
}

// MulScalar computes out = a · scalar, with the scalar reduced per limb.
func (r *Ring) MulScalar(out, a *Poly, scalar uint64) {
	limbs := r.check(out, a)
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		s := mod.Reduce(scalar)
		ss := mod.ShoupConstant(s)
		oc, ac := out.Coeffs[i], a.Coeffs[i]
		for j := range oc {
			oc[j] = mod.MulShoup(ac[j], s, ss)
		}
	}
	out.IsNTT = a.IsNTT
}

// MulScalarRNS multiplies limb i by scalars[i] (one residue per limb).
func (r *Ring) MulScalarRNS(out, a *Poly, scalars []uint64) {
	limbs := r.check(out, a)
	if len(scalars) < limbs {
		panic("ring: MulScalarRNS: not enough scalars for limb count")
	}
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		s := mod.Reduce(scalars[i])
		ss := mod.ShoupConstant(s)
		oc, ac := out.Coeffs[i], a.Coeffs[i]
		for j := range oc {
			oc[j] = mod.MulShoup(ac[j], s, ss)
		}
	}
	out.IsNTT = a.IsNTT
}

// NTT transforms all limbs to the evaluation domain in place.
func (r *Ring) NTT(p *Poly) { r.NTTParallel(p, nil) }

// NTTParallel is NTT with the limbs — fully independent, so the result is
// bit-identical — spread over the pool's workers; a nil pool is serial.
func (r *Ring) NTTParallel(p *Poly, pool *Pool) {
	if p.IsNTT {
		panic("ring: NTT on NTT-domain polynomial")
	}
	pool.ForEach(len(p.Coeffs), func(i int) { r.ForwardLimb(i, p.Coeffs[i]) })
	p.IsNTT = true
}

// INTT transforms all limbs back to the coefficient domain in place.
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT on coefficient-domain polynomial")
	}
	for i := range p.Coeffs {
		r.InverseLimb(i, p.Coeffs[i])
	}
	p.IsNTT = false
}

// CRT reconstructs coefficients over the first limbs moduli of a ring as
// centered big integers, with Q, every Q/q_i and every (Q/q_i)⁻¹ mod q_i
// computed once — for a caller that reconstructs many coefficients.
type CRT struct {
	bigQ, half *big.Int
	qi, qHat   []*big.Int // q_i and Q/q_i
	qHatInv    []*big.Int // (Q/q_i)⁻¹ mod q_i
}

// NewCRT precomputes the reconstruction constants over the first limbs
// moduli.
func (r *Ring) NewCRT(limbs int) *CRT {
	c := &CRT{bigQ: big.NewInt(1)}
	for _, m := range r.Moduli[:limbs] {
		qi := new(big.Int).SetUint64(m.Q)
		c.qi = append(c.qi, qi)
		c.bigQ.Mul(c.bigQ, qi)
	}
	for _, qi := range c.qi {
		qHat := new(big.Int).Div(c.bigQ, qi)
		c.qHat = append(c.qHat, qHat)
		c.qHatInv = append(c.qHatInv, new(big.Int).ModInverse(qHat, qi))
	}
	c.half = new(big.Int).Rsh(c.bigQ, 1)
	return c
}

// Centered reconstructs coefficient j of p (coefficient domain, at least as
// many limbs as c) as a centered big integer.
func (c *CRT) Centered(p *Poly, j int) *big.Int {
	acc, tmp := new(big.Int), new(big.Int)
	for i, qi := range c.qi {
		tmp.SetUint64(p.Coeffs[i][j])
		tmp.Mul(tmp, c.qHatInv[i])
		tmp.Mod(tmp, qi)
		tmp.Mul(tmp, c.qHat[i])
		acc.Add(acc, tmp)
	}
	acc.Mod(acc, c.bigQ)
	if acc.Cmp(c.half) > 0 {
		acc.Sub(acc, c.bigQ)
	}
	return acc
}

// ToBigCentered reconstructs coefficient j of p (coefficient domain) as a
// centered big integer via the CRT over all of p's limbs.
func (r *Ring) ToBigCentered(p *Poly, j int) *big.Int {
	return r.NewCRT(len(p.Coeffs)).Centered(p, j)
}

// SetBigCentered writes big integer v into coefficient j of p across all
// limbs.
func (r *Ring) SetBigCentered(p *Poly, j int, v *big.Int) {
	tmp := new(big.Int)
	for i := range p.Coeffs {
		qi := new(big.Int).SetUint64(r.Moduli[i].Q)
		tmp.Mod(v, qi)
		if tmp.Sign() < 0 {
			tmp.Add(tmp, qi)
		}
		p.Coeffs[i][j] = tmp.Uint64()
	}
}
