package ckks

import (
	"encoding/binary"
	"errors"
	"testing"

	"poseidon/internal/ring"
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
	// Well-formed bytes whose one word is not a canonical residue: w + q,
	// w + 2q and 2^64 − 1 on the 50-bit and on the 40-bit limb.
	for limb := range params.Q {
		for _, bad := range offRange(ct.C0.Coeffs[limb][3], params.Q[limb]) {
			off := ct.CopyNew()
			off.C0.Coeffs[limb][3] = bad
			data, err := off.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var back Ciphertext
		if back.UnmarshalBinary(data) == nil && params.CheckCiphertext(&back) == nil {
			// What parses and passes the check is canonical, row by row.
			for c, poly := range [2]*ring.Poly{back.C0, back.C1} {
				for i, row := range poly.Coeffs[:back.Level+1] {
					if j := aboveModulus(row, params.Q[i]); j >= 0 {
						t.Fatalf("CheckCiphertext passed C%d limb %d word %d = %d ≥ q = %d", c, i, j, row[j], params.Q[i])
					}
				}
			}
		}
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
	// Well-formed keys whose one word is not a canonical residue: w + q,
	// w + 2q and 2^64 − 1 on the 50-bit and on the 40-bit Q limb.
	for limb := range params.Q {
		for _, bad := range offRange(rlk.B[0].Q.Coeffs[limb][3], params.Q[limb]) {
			var off SwitchingKey
			if err := off.UnmarshalBinary(swkBytes); err != nil {
				f.Fatal(err)
			}
			off.B[0].Q.Coeffs[limb][3] = bad
			data, err := off.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	ev := NewEvaluator(params, nil, nil)
	ct := NewEncryptor(params, kgen.GenPublicKey(sk), 105).EncryptZero(params.MaxLevel(), params.Scale)
	f.Fuzz(func(t *testing.T, data []byte) {
		var swk SwitchingKey
		if err := swk.UnmarshalBinary(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("switching key rejection not wrapping ErrCorrupt: %v", err)
		} else if err == nil {
			if params.CheckSwitchingKey(&swk) == nil {
				// What parses and passes the check is canonical, row by row.
				for d := range swk.B {
					for c, pq := range [2]PolyQP{swk.B[d], swk.A[d]} {
						for i, row := range pq.Q.Coeffs {
							if j := aboveModulus(row, params.Q[i]); j >= 0 {
								t.Fatalf("CheckSwitchingKey passed digit %d %c Q limb %d word %d = %d ≥ q = %d", d, "BA"[c], i, j, row[j], params.Q[i])
							}
						}
						for i, row := range pq.P.Coeffs {
							if j := aboveModulus(row, params.P[i]); j >= 0 {
								t.Fatalf("CheckSwitchingKey passed digit %d %c P limb %d word %d = %d ≥ p = %d", d, "BA"[c], i, j, row[j], params.P[i])
							}
						}
					}
				}
			}
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

// offRange returns the three non-canonical stand-ins for residue w of q
// that the fuzzers seed: w + q, w + 2q and 2^64 − 1.
func offRange(w, q uint64) []uint64 {
	return []uint64{w + q, w + 2*q, 1<<64 - 1}
}

// aboveModulus returns the index of the first word of row that is not
// below q, or −1: the fuzzers' own range check, independent of the one
// under test.
func aboveModulus(row []uint64, q uint64) int {
	for j, w := range row {
		if w >= q {
			return j
		}
	}
	return -1
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
