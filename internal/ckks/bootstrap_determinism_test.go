package ckks

import (
	"errors"
	"math/rand"
	"testing"
)

// TestBootstrapperDeterministic: the bootstrapper's rotation keys are
// generated in ascending step order, not map order, so two bootstrappers
// built from one seed hold the same keys and refresh one ciphertext to
// bit-identical output; the key set is the union of what its two transforms'
// plans ask for plus conjugation (sharing one baby-step width: 38 + 1 on the
// benchmark's B9 shape), each key cut to the raise level.
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

	steps := map[int]bool{}
	for _, s := range append(bootA.ctsLT.Rotations(), bootA.stcLT.Rotations()...) {
		steps[s] = true
	}
	keys := bootA.Evaluator().rtks.Keys
	if got, want := len(keys), len(steps)+1; got != want || want != 39 {
		t.Errorf("bootstrapper holds %d Galois keys, its plans ask for %d rotations + conjugation (39 at B9)", got, want-1)
	}
	limbs, digits := bootA.raise+1, params.Digits(bootA.raise)
	for g, key := range keys {
		if len(key.B) != digits || len(key.A) != digits || len(key.B[0].Q.Coeffs) != limbs || len(key.A[0].Q.Coeffs) != limbs {
			t.Errorf("Galois key %d: %d digits × %d Q limbs, want %d × %d (cut to the raise level)", g, len(key.B), len(key.B[0].Q.Coeffs), digits, limbs)
		}
	}
	// Above the raise level those keys hold nothing: a typed error, not an
	// index out of range inside a worker.
	above := NewCiphertext(params, bootA.raise+1)
	above.Scale = params.Scale
	above.C0.IsNTT, above.C1.IsNTT = true, true // the zero ciphertext, a valid operand
	if _, err := bootA.Evaluator().TryMulRelinInto(nil, above, above); !errors.Is(err, ErrKeyMissing) {
		t.Errorf("MulRelin at level %d on keys cut at %d: %v, want ErrKeyMissing", above.Level, bootA.raise, err)
	}
	if _, err := bootA.Evaluator().TryConjugateInto(nil, above); !errors.Is(err, ErrKeyMissing) {
		t.Errorf("Conjugate at level %d on keys cut at %d: %v, want ErrKeyMissing", above.Level, bootA.raise, err)
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
