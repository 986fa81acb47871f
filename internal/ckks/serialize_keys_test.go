package ckks

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestRelinearizationKeySerialization(t *testing.T) {
	tc := newTestContext(t)
	data, err := tc.rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back RelinearizationKey
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(back.B) != len(tc.rlk.B) {
		t.Fatalf("digit count changed: %d vs %d", len(back.B), len(tc.rlk.B))
	}
	for d := range back.B {
		if !back.B[d].Q.Equal(tc.rlk.B[d].Q) || !back.B[d].P.Equal(tc.rlk.B[d].P) ||
			!back.A[d].Q.Equal(tc.rlk.A[d].Q) || !back.A[d].P.Equal(tc.rlk.A[d].P) {
			t.Fatalf("digit %d changed across serialization", d)
		}
	}

	// The deserialized key must actually relinearize.
	ev := NewEvaluator(tc.params, &back, nil)
	rng := rand.New(rand.NewSource(130))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)
	prod := ev.Rescale(ev.MulRelin(ct, ct))
	got := tc.decryptVec(prod)
	want := make([]complex128, len(z))
	for i := range want {
		want[i] = z[i] * z[i]
	}
	assertClose(t, got, want, 1e-4, "CMult with deserialized rlk")
}

func TestRotationKeySetSerialization(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{1, -2, 7}
	rtks := tc.kgen.GenRotationKeys(tc.sk, steps, true)

	data, err := rtks.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back RotationKeySet
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Keys) != len(rtks.Keys) {
		t.Fatalf("key count changed: %d vs %d", len(back.Keys), len(rtks.Keys))
	}

	// Rotations must work with the deserialized set.
	ev := NewEvaluator(tc.params, nil, &back)
	rng := rand.New(rand.NewSource(131))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)
	n := tc.params.Slots
	for _, s := range steps {
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[((i+s)%n+n)%n]
		}
		got := tc.decryptVec(ev.Rotate(ct, s))
		assertClose(t, got, want, 1e-4, "rotation with deserialized keys")
	}
}

func TestKeySerializationErrors(t *testing.T) {
	tc := newTestContext(t)
	data, _ := tc.rlk.MarshalBinary()

	var swk SwitchingKey
	if err := swk.UnmarshalBinary(data[:40]); err == nil {
		t.Error("truncated key should error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if err := swk.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic should error")
	}
	if err := swk.UnmarshalBinary(append(data, 1)); err == nil {
		t.Error("trailing bytes should error")
	}

	var set RotationKeySet
	if err := set.UnmarshalBinary(data); err == nil {
		t.Error("kind confusion should error")
	}
	if err := set.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("tiny payload should error")
	}

	empty := &SwitchingKey{}
	if _, err := empty.MarshalBinary(); err == nil {
		t.Error("empty key should refuse to marshal")
	}
}

// A rotation key set marshals to the same bytes every time, and two sets
// generated from one seed marshal alike: keys go out in ascending Galois
// element order, not in map order.
func TestRotationKeySetMarshalDeterministic(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{1, 2, -3, 5, 8}
	marshal := func(set *RotationKeySet) []byte {
		t.Helper()
		data, err := set.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	set := tc.kgen.GenRotationKeys(tc.sk, steps, true)
	first := marshal(set)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(marshal(set), first) {
			t.Fatalf("marshal %d of one key set differs from the first", i+2)
		}
	}

	kgen := NewKeyGenerator(tc.params, 7)
	sk := kgen.GenSecretKey()
	a := marshal(kgen.GenRotationKeys(sk, steps, true))
	kgen = NewKeyGenerator(tc.params, 7)
	sk = kgen.GenSecretKey()
	if b := marshal(kgen.GenRotationKeys(sk, steps, true)); !bytes.Equal(a, b) {
		t.Fatal("two key sets generated from one seed marshal to different bytes")
	}
}
