package ckks

import (
	"math/rand"
	"testing"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	rng := rand.New(rand.NewSource(20))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Level != ct.Level || back.Scale != ct.Scale {
		t.Error("metadata changed across serialization")
	}
	if !back.C0.Equal(ct.C0) || !back.C1.Equal(ct.C1) {
		t.Error("polynomial data changed across serialization")
	}
	// The deserialized ciphertext must decrypt to the same values.
	got := tc.enc.Decode(tc.decr.Decrypt(&back))
	assertClose(t, got, z, 1e-6, "decrypt after round trip")
}

func TestPlaintextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	rng := rand.New(rand.NewSource(21))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	pt := tc.enc.Encode(z, tc.params.MaxLevel(), tc.params.Scale)

	data, err := pt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Plaintext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Value.Equal(pt.Value) || back.Scale != pt.Scale || back.Level != pt.Level {
		t.Error("plaintext changed across serialization")
	}
	got := tc.enc.Decode(&back)
	assertClose(t, got, z, 1e-7, "decode after round trip")
}

func TestSecretKeySerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	data, err := tc.sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back SecretKey
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Value.Q.Equal(tc.sk.Value.Q) || !back.Value.P.Equal(tc.sk.Value.P) {
		t.Error("secret key changed across serialization")
	}
	// A decryptor built from the deserialized key must work.
	rng := rand.New(rand.NewSource(22))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)
	d2 := NewDecryptor(tc.params, &back)
	got := tc.enc.Decode(d2.Decrypt(ct))
	assertClose(t, got, z, 1e-6, "decrypt with deserialized key")
}

func TestSerializationErrors(t *testing.T) {
	tc := newTestContext(t)
	ct := tc.encr.EncryptZero(2, tc.params.Scale)
	data, _ := ct.MarshalBinary()

	var back Ciphertext
	if err := back.UnmarshalBinary(data[:10]); err == nil {
		t.Error("truncated header should error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic should error")
	}
	if err := back.UnmarshalBinary(data[:len(data)-8]); err == nil {
		t.Error("truncated payload should error")
	}
	if err := back.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("trailing bytes should error")
	}
	// Kind confusion: plaintext bytes into a ciphertext.
	pt := tc.enc.Encode(nil, 2, tc.params.Scale)
	pdata, _ := pt.MarshalBinary()
	if err := back.UnmarshalBinary(pdata); err == nil {
		t.Error("kind mismatch should error")
	}
}

// A plaintext decoded over another multiplies as the one it now holds: PMult
// reads the plaintext's rows and keeps nothing derived from an earlier call.
func TestMulPlainAfterPlaintextReload(t *testing.T) {
	gc := newGuardContext(t)
	ct, _, pa := gc.inputs(t, 3, gc.params.MaxLevel())
	_, _, pb := gc.inputs(t, 4, gc.params.MaxLevel())
	gc.ev.MulPlain(ct, pa)

	data, err := pb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got, want := gc.ev.MulPlain(ct, pa), gc.ev.MulPlain(ct, pb)
	if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
		t.Fatal("MulPlain by a reloaded plaintext differs from MulPlain by the plaintext it was loaded from")
	}
}

// Decoding into a sealed ciphertext drops the seal, which described the old
// contents: with guards on, the decoded value is an operand like any other.
func TestCiphertextUnmarshalDropsSeal(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(7)
	a, b, _ := gc.inputs(t, 5, gc.params.MaxLevel())
	ev.SealIntegrity(a)

	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got, err := ev.TryAddInto(nil, a, a)
	if err != nil {
		t.Fatalf("Add of a ciphertext decoded over a sealed one: %v", err)
	}
	want := NewEvaluator(gc.params, nil, nil).Add(b, b)
	if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
		t.Fatal("Add of the decoded ciphertext differs from Add of its source")
	}
}
