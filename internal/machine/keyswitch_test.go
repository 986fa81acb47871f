package machine

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/automorph"
	"poseidon/internal/ckks"
	"poseidon/internal/isa"
	"poseidon/internal/ring"
)

// fullParams is the geometry of the end-to-end tests: 3 Q limbs, 2 P limbs
// (two keyswitch digits at the top level).
func fullParams(t *testing.T) *ckks.Parameters {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// keySwitchOnMachine ships the coefficient-domain polynomial in (limbs
// 0..level) and the switching key's digits to a machine over the chain
// [Q..., P...], runs isa.CompileKeySwitch there, and returns the program's
// two NTT-domain outputs with its cost account.
func keySwitchOnMachine(t *testing.T, params *ckks.Parameters, in *ring.Poly, level int, swk *ckks.SwitchingKey) (p0, p1 *ring.Poly, st Stats) {
	t.Helper()
	cfg := arch.U280()
	cfg.Lanes = 64
	chain := append(append([]uint64{}, params.Q...), params.P...)
	m, err := New(cfg, params.N, chain)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= level; l++ {
		m.WriteHBM("in", l, in.Coeffs[l])
	}
	// Key digits: Q part at machine limbs 0..|Q|-1, P part at |Q|...
	lq := len(params.Q)
	for d := range swk.B {
		bSym, aSym := fmt.Sprintf("key.b%d", d), fmt.Sprintf("key.a%d", d)
		for l := 0; l <= level; l++ {
			m.WriteHBM(bSym, l, swk.B[d].Q.Coeffs[l])
			m.WriteHBM(aSym, l, swk.A[d].Q.Coeffs[l])
		}
		for j := 0; j < params.Alpha(); j++ {
			m.WriteHBM(bSym, lq+j, swk.B[d].P.Coeffs[j])
			m.WriteHBM(aSym, lq+j, swk.A[d].P.Coeffs[j])
		}
	}
	ks := isa.NewKeySwitchConstants(m.Moduli[:lq], m.Moduli[lq:], level)
	if st, err = m.Run(isa.CompileKeySwitch(ks, "in", "key")); err != nil {
		t.Fatal(err)
	}
	p0, p1 = newNTTPoly(params, level+1), newNTTPoly(params, level+1)
	for l := 0; l <= level; l++ {
		v0, err := m.ReadHBM("out.p0", l)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := m.ReadHBM("out.p1", l)
		if err != nil {
			t.Fatal(err)
		}
		copy(p0.Coeffs[l], v0)
		copy(p1.Coeffs[l], v1)
	}
	return p0, p1, st
}

// The flagship cross-layer test: a Rotation whose hybrid keyswitch runs as
// one ISA program on the modeled datapath, operating on a real ciphertext
// with real rotation keys, decrypts to the rotated plaintext. The host
// applies the automorphism to both components before the keyswitch and
// adds p0 to σ(c0) after it.
func TestMachineFullRotation(t *testing.T) {
	params := fullParams(t)
	kgen := ckks.NewKeyGenerator(params, 80)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 81)
	decr := ckks.NewDecryptor(params, sk)

	steps := 1
	g := automorph.GaloisElementForRotation(steps, params.N)
	rtks := kgen.GenRotationKeys(sk, []int{steps}, false)

	rng := rand.New(rand.NewSource(82))
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))
	level := ct.Level

	// Host: σ_g on both components, in the coefficient domain.
	rq := params.RingQ
	c0, c1 := ct.C0.CopyNew(), ct.C1.CopyNew()
	rq.INTT(c0)
	rq.INTT(c1)
	a0, a1 := rq.NewPoly(level+1), rq.NewPoly(level+1)
	rq.Automorphism(a0, c0, g)
	rq.Automorphism(a1, c1, g)

	p0, p1, st := keySwitchOnMachine(t, params, a1, level, rtks.Keys[g])
	for _, op := range []isa.Opcode{isa.MAdd, isa.MSub, isa.MMul, isa.NTT} {
		if st.Cycles[op] == 0 {
			t.Errorf("keyswitch program should use %v cycles", op)
		}
	}

	// Host: out = (NTT(σ(c0)) + p0, p1).
	rq.NTT(a0)
	rq.Add(p0, p0, a0)
	out := &ckks.Ciphertext{C0: p0, C1: p1, Scale: ct.Scale, Level: level}
	got := enc.Decode(decr.Decrypt(out))

	worst := 0.0
	n := params.Slots
	for i := range z {
		want := z[(i+steps)%n]
		if e := cmplx.Abs(got[i] - want); e > worst {
			worst = e
		}
	}
	t.Logf("machine-keyswitched rotation: max slot error %.3e", worst)
	if worst > 1e-3 {
		t.Errorf("machine rotation error %g too large", worst)
	}

	// And it must agree with the software evaluator's rotation.
	ev := ckks.NewEvaluator(params, nil, rtks)
	sw := enc.Decode(decr.Decrypt(ev.Rotate(ct, steps)))
	worst = 0
	for i := range sw {
		if e := cmplx.Abs(got[i] - sw[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-3 {
		t.Errorf("machine vs software rotation differ by %g", worst)
	}
}
