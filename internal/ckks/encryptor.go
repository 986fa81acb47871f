package ckks

import (
	"math/rand"

	"poseidon/internal/ring"
)

// Ciphertext is a degree-1 RNS-CKKS ciphertext in the NTT domain:
// decryption is C0 + C1·s.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
	Level  int

	// seal holds the per-limb residue checksums recorded by
	// Evaluator.SealIntegrity; nil when the ciphertext is unsealed.
	// Dropped when the ciphertext is an *Into destination or is decoded into.
	seal *integritySeal
}

// CopyNew deep-copies the ciphertext. The integrity seal, if any, is not
// carried over: seal the copy explicitly if it needs one.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Scale: ct.Scale, Level: ct.Level}
}

// NewCiphertext allocates a zero ciphertext shell at the given level —
// the destination container for the *Into evaluator API. Scale is left 0;
// every Into method overwrites it.
func NewCiphertext(params *Parameters, level int) *Ciphertext {
	rq := params.RingQ
	return &Ciphertext{C0: rq.NewPoly(level + 1), C1: rq.NewPoly(level + 1), Level: level}
}

// prefix returns a view of the first `limbs` limbs of p (shared backing).
// At full width it returns p itself, so fixed-level operation chains never
// allocate view headers.
func prefix(p *ring.Poly, limbs int) *ring.Poly {
	if limbs == len(p.Coeffs) {
		return p
	}
	return &ring.Poly{Coeffs: p.Coeffs[:limbs], IsNTT: p.IsNTT}
}

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	rng    *rand.Rand
}

// NewEncryptor creates an encryptor; seed fixes the encryption randomness.
func NewEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, rng: rand.New(rand.NewSource(seed))}
}

func (e *Encryptor) smallPoly(limbs int, ternary bool) *ring.Poly {
	rq := e.params.RingQ
	coeffs := make([]int64, e.params.N)
	for i := range coeffs {
		if ternary {
			coeffs[i] = int64(e.rng.Intn(3)) - 1
		} else {
			g := e.rng.NormFloat64() * 3.2
			coeffs[i] = int64(g)
		}
	}
	p := embed(rq, coeffs, limbs)
	rq.NTT(p)
	return p
}

// Encrypt produces a fresh encryption of pt at pt.Level.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	rq := e.params.RingQ
	limbs := pt.Level + 1
	u := e.smallPoly(limbs, true)
	e0 := e.smallPoly(limbs, false)
	e1 := e.smallPoly(limbs, false)

	ct := &Ciphertext{
		C0:    rq.NewPoly(limbs),
		C1:    rq.NewPoly(limbs),
		Scale: pt.Scale,
		Level: pt.Level,
	}
	ct.C0.IsNTT, ct.C1.IsNTT = true, true
	rq.MulCoeffwise(ct.C0, prefix(e.pk.B, limbs), u)
	rq.Add(ct.C0, ct.C0, e0)
	rq.Add(ct.C0, ct.C0, pt.Value)
	rq.MulCoeffwise(ct.C1, prefix(e.pk.A, limbs), u)
	rq.Add(ct.C1, ct.C1, e1)
	return ct
}

// EncryptZero returns an encryption of zero at the given level and scale.
func (e *Encryptor) EncryptZero(level int, scale float64) *Ciphertext {
	pt := &Plaintext{Value: e.params.RingQ.NewPoly(level + 1), Scale: scale, Level: level}
	pt.Value.IsNTT = true
	return e.Encrypt(pt)
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes C0 + C1·s on the ciphertext cut to its level. A
// malformed ciphertext panics with the evaluator's ErrInvalidInput *OpError.
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	d.params.mustValidIn("Decrypt", ct)
	rq := d.params.RingQ
	limbs := ct.Level + 1
	m := rq.NewPoly(limbs)
	m.IsNTT = true
	rq.MulCoeffwise(m, prefix(ct.C1, limbs), prefix(d.sk.Value.Q, limbs))
	rq.Add(m, m, prefix(ct.C0, limbs))
	return &Plaintext{Value: m, Scale: ct.Scale, Level: ct.Level}
}
