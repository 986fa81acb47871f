package ckks

import (
	"math/rand"
	"testing"
)

// TestBootstrapperDeterministic: the bootstrapper's rotation keys are
// generated in ascending step order, not map order, so two bootstrappers
// built from one seed hold the same keys and refresh one ciphertext to
// bit-identical output; and pinning the √n split keeps the key set on the
// benchmark's B9 shape at exactly 30 rotations plus conjugation.
func TestBootstrapperDeterministic(t *testing.T) {
	params := bootstrapParams(t)
	enc := NewEncoder(params)

	build := func() (*Bootstrapper, *Ciphertext) {
		kgen := NewKeyGenerator(params, 11)
		sk := kgen.GenSecretKey()
		encr := NewEncryptor(params, kgen.GenPublicKey(sk), 12)
		boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
		if err != nil {
			t.Fatal(err)
		}
		z := randomComplex(rand.New(rand.NewSource(13)), params.Slots, 1.0)
		return boot, encr.Encrypt(enc.Encode(z, 0, params.Scale))
	}
	bootA, ctA := build()
	bootB, ctB := build()
	requireCtEqual(t, ctA, ctB, "same seed, same input ciphertext")

	if got, want := len(bootA.Evaluator().rtks.Keys), 30+1; got != want {
		t.Errorf("bootstrapper holds %d Galois keys, want %d (30 rotations + conjugation)", got, want)
	}

	outA, err := bootA.Bootstrap(ctA)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := bootB.Bootstrap(ctB)
	if err != nil {
		t.Fatal(err)
	}
	requireCtEqual(t, outA, outB, "two bootstrappers from one seed")
}
