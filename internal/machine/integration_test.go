package machine

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/ckks"
	"poseidon/internal/isa"
	"poseidon/internal/ring"
)

// End-to-end: encrypt with the CKKS library, ship the ciphertext limbs to
// the modeled accelerator, execute an HAdd program on the datapath, read
// the result back and decrypt it. This closes the loop the paper's Fig 1/2
// describe — host ↔ HBM ↔ operator cores — with real cryptographic data.
func TestMachineExecutesRealCiphertexts(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := ckks.NewKeyGenerator(params, 70)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 71)
	decr := ckks.NewDecryptor(params, sk)

	rng := rand.New(rand.NewSource(72))
	z1 := make([]complex128, params.Slots)
	z2 := make([]complex128, params.Slots)
	for i := range z1 {
		z1[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		z2[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	ct1 := encr.Encrypt(enc.Encode(z1, params.MaxLevel(), params.Scale))
	ct2 := encr.Encrypt(enc.Encode(z2, params.MaxLevel(), params.Scale))

	// The accelerator over the same modulus chain.
	cfg := arch.U280()
	cfg.Lanes = 64
	m, err := New(cfg, params.N, params.Q)
	if err != nil {
		t.Fatal(err)
	}
	limbs := params.MaxLevel() + 1
	for l := 0; l < limbs; l++ {
		m.WriteHBM("a.c0", l, ct1.C0.Coeffs[l])
		m.WriteHBM("a.c1", l, ct1.C1.Coeffs[l])
		m.WriteHBM("b.c0", l, ct2.C0.Coeffs[l])
		m.WriteHBM("b.c1", l, ct2.C1.Coeffs[l])
	}
	st, err := m.Run(haddProgram(limbs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles[isa.MAdd] <= 0 || st.HBMBytes <= 0 {
		t.Error("execution must charge MA cycles and HBM traffic")
	}

	// Rebuild the result ciphertext from the accelerator's HBM.
	out := &ckks.Ciphertext{
		C0:    newNTTPoly(params, limbs),
		C1:    newNTTPoly(params, limbs),
		Scale: ct1.Scale,
		Level: ct1.Level,
	}
	for l := 0; l < limbs; l++ {
		c0, err := m.ReadHBM("out.c0", l)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := m.ReadHBM("out.c1", l)
		if err != nil {
			t.Fatal(err)
		}
		copy(out.C0.Coeffs[l], c0)
		copy(out.C1.Coeffs[l], c1)
	}

	got := enc.Decode(decr.Decrypt(out))
	worst := 0.0
	for i := range z1 {
		if e := cmplx.Abs(got[i] - (z1[i] + z2[i])); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 {
		t.Errorf("accelerator HAdd decrypted with error %g", worst)
	}
}

func newNTTPoly(params *ckks.Parameters, limbs int) *ring.Poly {
	p := params.RingQ.NewPoly(limbs)
	p.IsNTT = true
	return p
}
