package ckks

import (
	"math"
	"math/rand"
	"testing"
)

func TestNoiseEstimatorFreshCiphertext(t *testing.T) {
	tc := newTestContext(t)
	ne := NewNoiseEstimator(tc.params, tc.sk)
	rng := rand.New(rand.NewSource(40))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	stats := ne.Measure(ct, z)
	if stats.MaxErr > 1e-6 {
		t.Errorf("fresh ciphertext error %g too large", stats.MaxErr)
	}
	if stats.MinBits < 20 {
		t.Errorf("fresh ciphertext precision %.1f bits, want ≥ 20", stats.MinBits)
	}
	if stats.AvgBits < stats.MinBits {
		t.Error("average precision cannot be worse than worst-case")
	}
	if stats.AvgErr > stats.MaxErr {
		t.Error("average error cannot exceed max error")
	}
}

func TestNoiseGrowsWithDepth(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	ne := NewNoiseEstimator(tc.params, tc.sk)
	rng := rand.New(rand.NewSource(41))
	z := randomComplex(rng, tc.params.Slots, 1.0)

	ct := tc.encryptVec(z)
	want := append([]complex128(nil), z...)
	prevBits := ne.Measure(ct, want).MinBits
	for d := 0; d < 3; d++ {
		ct = ev.Rescale(ev.MulRelin(ct, ct))
		for i := range want {
			want[i] *= want[i]
		}
		bits := ne.Measure(ct, want).MinBits
		if bits > prevBits+2 {
			t.Errorf("depth %d: precision improved from %.1f to %.1f bits (noise must grow)",
				d+1, prevBits, bits)
		}
		prevBits = bits
	}
	if prevBits < 5 {
		t.Errorf("depth-3 circuit retained only %.1f bits", prevBits)
	}
}

func TestHeadroomBits(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	ct := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale)

	full := HeadroomBits(tc.params, ct)
	if full <= 0 {
		t.Fatalf("fresh budget %.1f bits should be positive", full)
	}
	low := HeadroomBits(tc.params, ev.DropLevel(ct, 0))
	if low >= full {
		t.Error("budget must shrink as levels drop")
	}
	// At level 0 with scale ≈ q0 the budget is nearly exhausted.
	if low > 15 {
		t.Errorf("level-0 budget %.1f bits unexpectedly high", low)
	}
	if math.IsNaN(full) || math.IsNaN(low) {
		t.Error("budget must be finite")
	}
}

func TestNoiseEstimatorEmptyReference(t *testing.T) {
	tc := newTestContext(t)
	ne := NewNoiseEstimator(tc.params, tc.sk)
	ct := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale)
	stats := ne.Measure(ct, nil)
	if stats.MaxErr != 0 || stats.AvgErr != 0 {
		t.Error("empty reference should yield zero stats")
	}
}
