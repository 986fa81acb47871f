package poseidon

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Public-API fuzz: no input to the kit's Try entry points may panic the
// process. The fuzzer drives vector length and contents (including NaN/Inf
// payloads), the inner-sum width, and arbitrary mutations of a serialized
// ciphertext fed back through UnmarshalBinary into TryDecryptValues — the
// path an attacker controlling stored ciphertexts would hit.
func FuzzKitTryAPI(f *testing.F) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
		Workers:  1,
	})
	if err != nil {
		f.Fatal(err)
	}
	kit := NewKit(params, 321)
	kit.Eval.EnableGuards(322)

	valid, err := kit.EncryptValues([]complex128{1, 2i, -3}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(3), uint64(0x3ff0000000000000), int16(4), []byte{})
	f.Add(uint16(200), uint64(0x7ff0000000000000), int16(3), valid) // +Inf payload, bad width
	f.Add(uint16(0), uint64(0x7ff8000000000001), int16(-1), valid[:40])
	f.Add(uint16(1000), uint64(42), int16(16), valid)

	f.Fuzz(func(t *testing.T, nvals uint16, bits uint64, width int16, ctBytes []byte) {
		vals := make([]complex128, int(nvals)%(2*params.Slots))
		for i := range vals {
			re := math.Float64frombits(bits + uint64(i))
			vals[i] = complex(re, -re)
		}
		// A non-finite value must be refused; values well inside int64 once
		// scaled (a coefficient is at most the largest slot) accepted.
		finite, small := true, true
		for _, v := range vals {
			for _, x := range []float64{real(v), imag(v)} {
				finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
				small = small && math.Abs(x)*params.Scale < 0x1p60
			}
		}
		ct, err := kit.TryEncryptValues(vals)
		switch {
		case len(vals) > params.Slots || !finite:
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("TryEncryptValues(%d values, finite %v): %v, want ErrInvalidInput", len(vals), finite, err)
			}
		case small && err != nil:
			t.Fatalf("TryEncryptValues rejected %d valid slots: %v", len(vals), err)
		case err != nil && !errors.Is(err, ErrInvalidInput):
			t.Fatalf("TryEncryptValues: untyped error %v", err)
		}
		if ct != nil {
			if _, err := kit.Eval.TryInnerSum(ct, int(width)); err != nil &&
				!errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrKeyMissing) &&
				!errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrInternal) {
				t.Fatalf("TryInnerSum: untyped error %v", err)
			}
			if _, err := kit.TryDecryptValues(ct); err != nil {
				t.Fatalf("TryDecryptValues rejected a fresh ciphertext: %v", err)
			}
		}

		// Adversarial deserialize → decrypt: must reject or decode, never
		// panic. Flipped geometry words are the interesting mutations, so
		// splice the fuzz bytes over a valid frame too.
		var hostile Ciphertext
		if err := hostile.UnmarshalBinary(ctBytes); err == nil {
			if _, err := kit.TryDecryptValues(&hostile); err != nil &&
				!errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrIntegrity) &&
				!errors.Is(err, ErrInternal) {
				t.Fatalf("TryDecryptValues: untyped error %v", err)
			}
		}
		if len(ctBytes) >= 8 {
			spliced := append([]byte(nil), valid...)
			off := int(binary.LittleEndian.Uint64(ctBytes)%uint64(len(spliced)/8)) * 8
			copy(spliced[off:], ctBytes)
			var mutant Ciphertext
			if err := mutant.UnmarshalBinary(spliced); err == nil {
				if _, err := kit.TryDecryptValues(&mutant); err != nil &&
					!errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrIntegrity) &&
					!errors.Is(err, ErrInternal) {
					t.Fatalf("TryDecryptValues(mutant): untyped error %v", err)
				}
			}
		}
	})
}

// TestKitTryAPI covers the deterministic contract of the Try layer: valid
// round trips succeed, each misuse maps to its sentinel, and the legacy
// panicking InnerSum now routes through the same validation.
func TestKitTryAPI(t *testing.T) {
	kit := testKit(t)

	in := []complex128{1, 2, 3, 4}
	ct, err := kit.TryEncryptValues(in)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := kit.Eval.TryInnerSum(ct, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := kit.TryDecryptValues(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := real(out[0]), 10.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("TryInnerSum = %.6f, want %.6f", got, want)
	}

	if _, err := kit.Eval.TryInnerSum(ct, 3); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("width 3: got %v, want ErrInvalidInput", err)
	}
	if _, err := kit.TryEncryptValues(make([]complex128, kit.Params.Slots+1)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("oversize vector: got %v, want ErrInvalidInput", err)
	}
	if _, err := kit.TryDecryptValues(nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil ciphertext: got %v, want ErrInvalidInput", err)
	}

	// Guarded decrypt flags a corrupted ciphertext instead of decoding it.
	kit.Eval.EnableGuards(7)
	defer kit.Eval.DisableGuards()
	sealed, err := kit.TryEncryptValues(in)
	if err != nil {
		t.Fatal(err)
	}
	kit.Eval.SealIntegrity(sealed)
	sealed.C0.Coeffs[0][0] ^= 1 << 17
	if _, err := kit.TryDecryptValues(sealed); !errors.Is(err, ErrIntegrity) {
		t.Errorf("corrupted ciphertext: got %v, want ErrIntegrity", err)
	}
}
