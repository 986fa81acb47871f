package machine

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"poseidon/internal/ckks"
)

// CMult with relinearization, its keyswitch executed on the datapath, must
// decrypt to the slot-wise product. The host forms the degree-2 tensor
// product, hands INTT(d2) to the machine, and adds (p0, p1) to (d0, d1).
func TestMachineFullCMult(t *testing.T) {
	params := fullParams(t)
	kgen := ckks.NewKeyGenerator(params, 90)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 91)
	decr := ckks.NewDecryptor(params, sk)

	rng := rand.New(rand.NewSource(92))
	z1 := make([]complex128, params.Slots)
	z2 := make([]complex128, params.Slots)
	for i := range z1 {
		z1[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		z2[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	ct1 := encr.Encrypt(enc.Encode(z1, params.MaxLevel(), params.Scale))
	ct2 := encr.Encrypt(enc.Encode(z2, params.MaxLevel(), params.Scale))
	level := ct1.Level

	// Host: tensor product in the NTT domain.
	rq := params.RingQ
	d0, d1, d2 := newNTTPoly(params, level+1), newNTTPoly(params, level+1), newNTTPoly(params, level+1)
	rq.MulCoeffwise(d0, ct1.C0, ct2.C0)
	rq.MulCoeffwise(d1, ct1.C0, ct2.C1)
	rq.MulCoeffwise(d2, ct1.C1, ct2.C0)
	rq.Add(d1, d1, d2)
	rq.MulCoeffwise(d2, ct1.C1, ct2.C1)
	rq.INTT(d2)

	p0, p1, _ := keySwitchOnMachine(t, params, d2, level, &rlk.SwitchingKey)
	rq.Add(p0, p0, d0)
	rq.Add(p1, p1, d1)

	out := &ckks.Ciphertext{C0: p0, C1: p1, Scale: ct1.Scale * ct2.Scale, Level: level}
	got := enc.Decode(decr.Decrypt(out))
	worst := 0.0
	for i := range z1 {
		if e := cmplx.Abs(got[i] - z1[i]*z2[i]); e > worst {
			worst = e
		}
	}
	t.Logf("machine-keyswitched CMult: max slot error %.3e", worst)
	if worst > 1e-3 {
		t.Errorf("machine CMult error %g too large", worst)
	}
}
