package ckks

import (
	"math"
	"math/cmplx"
)

// Noise diagnostics: measure how far a ciphertext's decryption drifts from
// a known reference, in bits of slot precision. Used by tests and by
// parameter-tuning experiments; the accelerator paper's workloads all
// depend on precision holding through deep circuits.

// NoiseEstimator measures slot-level precision against references.
type NoiseEstimator struct {
	enc  *Encoder
	decr *Decryptor
}

// NewNoiseEstimator builds an estimator from the secret key.
func NewNoiseEstimator(params *Parameters, sk *SecretKey) *NoiseEstimator {
	return &NoiseEstimator{enc: NewEncoder(params), decr: NewDecryptor(params, sk)}
}

// PrecisionStats summarizes the slot error distribution.
type PrecisionStats struct {
	MaxErr  float64 // worst absolute slot error
	AvgErr  float64 // mean absolute slot error
	MinBits float64 // −log2(MaxErr): guaranteed bits of precision
	AvgBits float64 // −log2(AvgErr)
}

// Measure decrypts ct and compares it slot-wise with want.
func (ne *NoiseEstimator) Measure(ct *Ciphertext, want []complex128) PrecisionStats {
	got := ne.enc.Decode(ne.decr.Decrypt(ct))
	var stats PrecisionStats
	n := len(want)
	if n == 0 {
		return stats
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		e := cmplx.Abs(got[i] - want[i])
		if e > stats.MaxErr {
			stats.MaxErr = e
		}
		sum += e
	}
	stats.AvgErr = sum / float64(n)
	stats.MinBits = safeNegLog2(stats.MaxErr)
	stats.AvgBits = safeNegLog2(stats.AvgErr)
	return stats
}

func safeNegLog2(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(x)
}

// HeadroomBits returns the modulus headroom left above ct's scale: log2 Q_l −
// log2 scale − 10, where Q_l is the product of ct's active primes and the
// flat 10 bits are kept back for the noise below the scale. No noise is
// tracked or measured: the figure depends only on ct's level and scale. A
// non-positive value means another multiplication leaves the plaintext no
// room.
func HeadroomBits(params *Parameters, ct *Ciphertext) float64 {
	return bitsAboveScale(params, ct.Level, ct.Scale) - 10 // ~10 bits kept back for noise
}

// bitsAboveScale is log2 Q_level − log2 scale: how many bits of the active
// chain product lie above a plaintext at that scale. HeadroomBits and the
// headroom guard (guardHeadroom) both read it.
func bitsAboveScale(params *Parameters, level int, scale float64) float64 {
	logQ := 0.0
	for i := 0; i <= level; i++ {
		logQ += math.Log2(float64(params.Q[i]))
	}
	return logQ - math.Log2(scale)
}
