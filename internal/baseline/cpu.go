package baseline

import (
	"fmt"
	"time"

	"poseidon/internal/automorph"
	"poseidon/internal/ckks"
	"poseidon/internal/ring"
)

// CPUMeasurement measures this machine's single-thread software throughput
// for the FHE basic operations, using the same operator implementations the
// accelerator model is built on — the "CPU (measured)" column of the
// Table IV reproduction. Its evaluator runs on one worker.
type CPUMeasurement struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	ev     *ckks.Evaluator
	ct1    *ckks.Ciphertext
	ct2    *ckks.Ciphertext
	pt     *ckks.Plaintext
	swk    *ckks.SwitchingKey // step-1 rotation key
	ksOut  *ckks.Ciphertext   // keyswitch destination
	poly   *ring.Poly         // NTT round-trip scratch
}

// NewCPUMeasurement sets up keys and operands for the given geometry.
// Key generation dominates setup time at large N.
func NewCPUMeasurement(logN int, limbs int, logScale int) (*CPUMeasurement, error) {
	logQ := make([]int, limbs)
	logQ[0] = logScale + 5
	for i := 1; i < limbs; i++ {
		logQ[i] = logScale
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     logQ,
		LogP:     []int{logScale + 6, logScale + 6, logScale + 6, logScale + 6},
		LogScale: logScale,
		Workers:  1,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	kgen := ckks.NewKeyGenerator(params, 1001)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	rtks := kgen.GenRotationKeys(sk, []int{1}, false)
	ev := ckks.NewEvaluator(params, rlk, rtks)
	encr := ckks.NewEncryptor(params, pk, 1002)
	enc := ckks.NewEncoder(params)

	vals := make([]complex128, params.Slots)
	for i := range vals {
		vals[i] = complex(float64(i%7)/7, float64(i%5)/5)
	}
	pt := enc.Encode(vals, params.MaxLevel(), params.Scale)
	ct1 := encr.Encrypt(pt)
	m := &CPUMeasurement{
		params: params,
		enc:    enc,
		ev:     ev,
		ct1:    ct1,
		ct2:    encr.Encrypt(pt),
		pt:     pt,
		swk:    rtks.Keys[automorph.GaloisElementForRotation(1, params.N)],
		ksOut:  ckks.NewCiphertext(params, params.MaxLevel()),
		poly:   ct1.C0.CopyNew(),
	}
	return m, nil
}

// Params exposes the measurement geometry.
func (m *CPUMeasurement) Params() *ckks.Parameters { return m.params }

// timeOp measures ops/sec for fn over reps runs.
func timeOp(reps int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	el := time.Since(start).Seconds()
	if el == 0 {
		return 0
	}
	return float64(reps) / el
}

// Measure runs every basic operation reps times and reports throughput.
func (m *CPUMeasurement) Measure(reps int) []OpThroughput {
	platform := "CPU (this machine, 1 thread)"
	var out []OpThroughput
	add := func(op string, ops float64) {
		out = append(out, OpThroughput{Platform: platform, Op: op, OpsPerS: ops, Source: Measured})
	}

	add("HAdd", timeOp(reps, func() { m.ev.Add(m.ct1, m.ct2) }))
	add("PMult", timeOp(reps, func() { m.ev.MulPlain(m.ct1, m.pt) }))
	add("CMult", timeOp(reps, func() { m.ev.MulRelin(m.ct1, m.ct2) }))
	add("Rescale", timeOp(reps, func() { m.ev.Rescale(m.ct1) }))
	add("Rotation", timeOp(reps, func() { m.ev.Rotate(m.ct1, 1) }))
	add("Keyswitch", timeOp(reps, func() { m.ev.KeySwitchInto(m.ksOut, m.ct1, m.swk) }))
	// NTT: an INTT/NTT round trip on one preallocated polynomial.
	add("NTT", timeOp(reps, func() {
		m.params.RingQ.INTT(m.poly)
		m.params.RingQ.NTT(m.poly)
	}))
	return out
}
