package ckks

import (
	"math/rand"

	"poseidon/internal/automorph"
	"poseidon/internal/ring"
)

// PolyQP is a polynomial over the extended basis Q·P, stored as its Q part
// and P part (both NTT domain for key material).
type PolyQP struct {
	Q *ring.Poly
	P *ring.Poly
}

// SecretKey is the ternary secret embedded over the full Q·P basis,
// NTT domain.
type SecretKey struct {
	Value PolyQP
}

// PublicKey is an encryption of zero under the secret key over Q,
// NTT domain: B = −A·s + e.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a target secret w under s: digit d holds
// (B_d, A_d) over Q·P with B_d = −A_d·s + e_d + P·w on the digit's own Q
// limbs (the hybrid-keyswitching gadget).
type SwitchingKey struct {
	B, A []PolyQP // one entry per digit
}

// RelinearizationKey switches s² → s.
type RelinearizationKey struct {
	SwitchingKey
}

// RotationKeySet maps Galois elements to their switching keys
// (σ_g(s) → s).
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator samples key material. Deterministic given the seed.
type KeyGenerator struct {
	params *Parameters
	rng    *rand.Rand
}

// NewKeyGenerator creates a key generator with the given seed.
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{params: params, rng: rand.New(rand.NewSource(seed))}
}

// ternaryCoeffs samples N coefficients from {−1, 0, 1}.
func (kg *KeyGenerator) ternaryCoeffs() []int64 {
	cs := make([]int64, kg.params.N)
	for i := range cs {
		cs[i] = int64(kg.rng.Intn(3)) - 1
	}
	return cs
}

// gaussianCoeffs samples N rounded-Gaussian coefficients (σ = 3.2).
func (kg *KeyGenerator) gaussianCoeffs() []int64 {
	cs := make([]int64, kg.params.N)
	for i := range cs {
		g := kg.rng.NormFloat64() * 3.2
		if g > 19.2 {
			g = 19.2
		} else if g < -19.2 {
			g = -19.2
		}
		cs[i] = int64(g + 0.5)
		if g < 0 {
			cs[i] = -int64(-g + 0.5)
		}
	}
	return cs
}

// embed writes small integer coefficients into a fresh coefficient-domain
// polynomial over r with the given limb count.
func embed(r *ring.Ring, coeffs []int64, limbs int) *ring.Poly {
	p := r.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		mod := r.Moduli[i]
		for j, c := range coeffs {
			p.Coeffs[i][j] = mod.ReduceSigned(c)
		}
	}
	return p
}

// uniformPoly samples a uniform NTT-domain polynomial over r.
func (kg *KeyGenerator) uniformPoly(r *ring.Ring, limbs int) *ring.Poly {
	p := r.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		q := r.Moduli[i].Q
		bound := (^uint64(0) / q) * q
		for j := range p.Coeffs[i] {
			for {
				v := kg.rng.Uint64()
				if v < bound {
					p.Coeffs[i][j] = v % q
					break
				}
			}
		}
	}
	p.IsNTT = true
	return p
}

// GenSecretKey samples a ternary secret and embeds it over Q·P.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	coeffs := kg.ternaryCoeffs()
	skQ := embed(kg.params.RingQ, coeffs, len(kg.params.Q))
	skP := embed(kg.params.RingP, coeffs, len(kg.params.P))
	kg.params.RingQ.NTT(skQ)
	kg.params.RingP.NTT(skP)
	return &SecretKey{Value: PolyQP{Q: skQ, P: skP}}
}

// GenPublicKey produces (−a·s + e, a) over the full Q chain.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.params.RingQ
	limbs := len(kg.params.Q)
	a := kg.uniformPoly(rq, limbs)
	e := embed(rq, kg.gaussianCoeffs(), limbs)
	rq.NTT(e)
	b := rq.NewPoly(limbs)
	rq.MulCoeffwise(b, a, sk.Value.Q)
	rq.Neg(b, b)
	rq.Add(b, b, e)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds a key switching target → s for ciphertexts at or
// below level, where target is an NTT-domain polynomial (e.g. s² or σ_g(s))
// over the chain up to that level: level+1 Q limbs and Digits(level) digits.
// The gadget residue is [P]_{q_i} on a digit's own limbs and 0 elsewhere, so
// a key cut this way is the full key restricted, and a keyswitch at a covered
// level reads nothing else.
func (kg *KeyGenerator) genSwitchingKey(target *ring.Poly, sk *SecretKey, level int) *SwitchingKey {
	params := kg.params
	rq, rp := params.RingQ, params.RingP
	limbsQ, limbsP := level+1, len(params.P)
	alpha := params.Alpha()
	digits := params.Digits(level)
	skQ := prefix(sk.Value.Q, limbsQ)

	// [P]_{q_i}: the factor applied to the target on digit-own limbs
	// (precomputed once on the parameter set).
	pModQ := params.pModQ

	swk := &SwitchingKey{
		B: make([]PolyQP, digits),
		A: make([]PolyQP, digits),
	}
	for d := 0; d < digits; d++ {
		aQ := kg.uniformPoly(rq, limbsQ)
		aP := kg.uniformPoly(rp, limbsP)
		eCoeffs := kg.gaussianCoeffs()
		eQ := embed(rq, eCoeffs, limbsQ)
		eP := embed(rp, eCoeffs, limbsP)
		rq.NTT(eQ)
		rp.NTT(eP)

		bQ := rq.NewPoly(limbsQ)
		rq.MulCoeffwise(bQ, aQ, skQ)
		rq.Neg(bQ, bQ)
		rq.Add(bQ, bQ, eQ)

		bP := rp.NewPoly(limbsP)
		rp.MulCoeffwise(bP, aP, sk.Value.P)
		rp.Neg(bP, bP)
		rp.Add(bP, bP, eP)

		// Add P·target on the digit's own Q limbs.
		lo := d * alpha
		hi := lo + alpha
		if hi > limbsQ {
			hi = limbsQ
		}
		for i := lo; i < hi; i++ {
			mod := rq.Moduli[i]
			f := pModQ[i]
			fs := mod.ShoupConstant(f)
			bc, tc := bQ.Coeffs[i], target.Coeffs[i]
			for j := range bc {
				bc[j] = mod.Add(bc[j], mod.MulShoup(tc[j], f, fs))
			}
		}
		swk.B[d] = PolyQP{Q: bQ, P: bP}
		swk.A[d] = PolyQP{Q: aQ, P: aP}
	}
	return swk
}

// GenRelinearizationKey builds the s² → s key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	return kg.genRelinearizationKey(sk, kg.params.MaxLevel())
}

func (kg *KeyGenerator) genRelinearizationKey(sk *SecretKey, level int) *RelinearizationKey {
	rq := kg.params.RingQ
	s, s2 := prefix(sk.Value.Q, level+1), rq.NewPoly(level+1)
	rq.MulCoeffwise(s2, s, s)
	return &RelinearizationKey{SwitchingKey: *kg.genSwitchingKey(s2, sk, level)}
}

// GenRotationKeys builds switching keys for the given rotation steps (and
// optionally conjugation).
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, steps []int, conjugate bool) *RotationKeySet {
	return kg.genRotationKeys(sk, steps, conjugate, kg.params.MaxLevel())
}

func (kg *KeyGenerator) genRotationKeys(sk *SecretKey, steps []int, conjugate bool, level int) *RotationKeySet {
	set := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	gs := make([]uint64, 0, len(steps)+1)
	for _, s := range steps {
		gs = append(gs, automorph.GaloisElementForRotation(s, kg.params.N))
	}
	if conjugate {
		gs = append(gs, automorph.GaloisElementConjugate(kg.params.N))
	}
	for _, g := range gs {
		if _, ok := set.Keys[g]; ok {
			continue
		}
		set.Keys[g] = kg.genGaloisKey(sk, g, level)
	}
	return set
}

// GenGaloisKeys builds switching keys for exactly the given Galois
// elements — the companion to LinearTransformPlan.GaloisElements, letting a
// tenant provision precisely the rotation keys one transform needs instead
// of guessing a power-of-two ladder. Duplicates and the identity element
// are skipped.
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, galEls []uint64) *RotationKeySet {
	set := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	for _, g := range galEls {
		if g == 1 {
			continue
		}
		if _, ok := set.Keys[g]; ok {
			continue
		}
		set.Keys[g] = kg.genGaloisKey(sk, g, kg.params.MaxLevel())
	}
	return set
}

// genGaloisKey switches from σ_g(s) to s. σ_g(s) is the secret's NTT image
// permuted: the NTT is a bijection of residues, so this is bit for bit the
// coefficient-domain map transformed, without a limb transform.
func (kg *KeyGenerator) genGaloisKey(sk *SecretKey, g uint64, level int) *SwitchingKey {
	rq := kg.params.RingQ
	sG := rq.NewPoly(level + 1)
	rq.AutomorphismNTT(sG, prefix(sk.Value.Q, level+1), g)
	return kg.genSwitchingKey(sG, sk, level)
}
