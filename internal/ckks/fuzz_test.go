package ckks

import (
	"encoding/binary"
	"errors"
	"testing"
)

// Unmarshal must reject arbitrary byte strings with errors, never panics
// or oversized allocations.
func FuzzCiphertextUnmarshal(f *testing.F) {
	// Seed with a valid ciphertext and a few mutations.
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		f.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 100)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 101)
	ct := encr.EncryptZero(params.MaxLevel(), params.Scale)
	valid, err := ct.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:32])
	f.Add([]byte{})
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[6*8:], 1<<40) // absurd N
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var back Ciphertext
		_ = back.UnmarshalBinary(data) // must not panic
		var pt Plaintext
		_ = pt.UnmarshalBinary(data)
		var key SecretKey
		_ = key.UnmarshalBinary(data)
	})
}

// Key material deserializers must reject arbitrary byte strings with
// errors wrapping ErrCorrupt — never a panic, never an allocation sized by
// attacker-controlled geometry. Switching keys carry two length fields
// (digits, limbsP) outside the validated header and the rotation key set
// nests switching keys behind per-entry size prefixes, so they get their
// own target.
func FuzzKeyUnmarshal(f *testing.F) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		f.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 104)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1}, false)

	swkBytes, err := rlk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	setBytes, err := rtk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	skBytes, err := sk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(swkBytes)
	f.Add(setBytes)
	f.Add(skBytes)
	f.Add(swkBytes[:48])
	f.Add(setBytes[:33])
	f.Add([]byte{})
	// Absurd digit count / limbsP in an otherwise valid switching key.
	hostile := append([]byte(nil), swkBytes...)
	binary.LittleEndian.PutUint64(hostile[headerWords*8:], 1<<50)
	f.Add(hostile)
	hostile2 := append([]byte(nil), skBytes...)
	binary.LittleEndian.PutUint64(hostile2[headerWords*8:], 1<<60) // absurd limbsP
	f.Add(hostile2)
	// Well-formed and shorter than the chain: 2 limbs, 1 of its 2 digits.
	short, err := (&SwitchingKey{B: rlk.B[:1], A: rlk.A[:1]}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)

	ev := NewEvaluator(params, nil, nil)
	ct := NewEncryptor(params, kgen.GenPublicKey(sk), 105).EncryptZero(params.MaxLevel(), params.Scale)
	f.Fuzz(func(t *testing.T, data []byte) {
		var swk SwitchingKey
		if err := swk.UnmarshalBinary(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("switching key rejection not wrapping ErrCorrupt: %v", err)
		} else if err == nil {
			// Whatever geometry its header named, a key that parsed either
			// switches at the top of this chain or is refused before a kernel
			// indexes it.
			if _, err := ev.TryKeySwitchInto(NewCiphertext(params, ct.Level), ct, &swk); err != nil && !errors.Is(err, ErrKeyMissing) {
				t.Fatalf("keyswitch on a parsed key: %v, want success or ErrKeyMissing", err)
			}
		}
		var set RotationKeySet
		if err := set.UnmarshalBinary(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rotation key set rejection not wrapping ErrCorrupt: %v", err)
		}
		var sk SecretKey
		if err := sk.UnmarshalBinary(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("secret key rejection not wrapping ErrCorrupt: %v", err)
		}
	})
}

// Every deserializer must report corruption through the ErrCorrupt
// sentinel so callers can distinguish bad bytes from I/O failures.
func TestDeserializeErrorsWrapErrCorrupt(t *testing.T) {
	garbage := []byte("not a poseidon object, definitely")
	targets := []struct {
		name string
		f    func([]byte) error
	}{
		{"Ciphertext", func(b []byte) error { var x Ciphertext; return x.UnmarshalBinary(b) }},
		{"Plaintext", func(b []byte) error { var x Plaintext; return x.UnmarshalBinary(b) }},
		{"SecretKey", func(b []byte) error { var x SecretKey; return x.UnmarshalBinary(b) }},
		{"SwitchingKey", func(b []byte) error { var x SwitchingKey; return x.UnmarshalBinary(b) }},
		{"RotationKeySet", func(b []byte) error { var x RotationKeySet; return x.UnmarshalBinary(b) }},
	}
	for _, tc := range targets {
		if err := tc.f(garbage); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: garbage rejection %v does not wrap ErrCorrupt", tc.name, err)
		}
		if err := tc.f(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: empty-input rejection %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

// A valid ciphertext must survive the fuzz-exercised path unchanged.
func TestFuzzSeedRoundTrip(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 102)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 103)
	ct := encr.EncryptZero(params.MaxLevel(), params.Scale)
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.C0.Equal(ct.C0) {
		t.Error("round trip mutated the ciphertext")
	}
}
