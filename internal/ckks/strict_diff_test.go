package ckks

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Differential suite for the lazy-reduction kernels: every evaluator
// operation must be BIT-IDENTICAL between the strict reference kernels
// (fully reduced after every butterfly/multiply, reduce-then-add digit
// sums) and the lazy production kernels (Harvey butterflies, Montgomery
// elementwise path, fused 128-bit inner-product accumulation). The two
// modes run on ONE Parameters instance toggled via SetStrictKernels, so
// keys, encryption randomness, and inputs are literally the same objects —
// any coefficient difference is a kernel bug, not setup noise.

// withStrictCkks runs f under the requested kernel mode and restores the
// previous mode afterwards.
func withStrictCkks(params *Parameters, strict bool, f func()) {
	prev := params.StrictKernels()
	params.SetStrictKernels(strict)
	defer params.SetStrictKernels(prev)
	f()
}

// TestStrictLazyEvaluatorOps is the differential table: every op × every
// parameter set, strict output bit-compared against lazy output on shared
// inputs, serially and at GOMAXPROCS workers.
func TestStrictLazyEvaluatorOps(t *testing.T) {
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(17)
		for _, op := range diffOps {
			var want *Ciphertext
			withStrictCkks(params, true, func() {
				want = op.run(dc.serial, ct1, ct2, pt, dc)
			})
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", pname, op.name, w), func(t *testing.T) {
					var got *Ciphertext
					withStrictCkks(params, false, func() {
						got = op.run(dc.serial.WithWorkers(w), ct1, ct2, pt, dc)
					})
					requireCtEqual(t, got, want, op.name)
				})
			}
		}
	}
}

// TestStrictLazyRotateHoisted pins the hoisted path (shared decomposition,
// per-rotation fused digit sums) to its strict replay.
func TestStrictLazyRotateHoisted(t *testing.T) {
	steps := []int{0, 1, -1, 2}
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, _, _ := dc.freshInputs(19)
		var want map[int]*Ciphertext
		withStrictCkks(params, true, func() {
			want = dc.serial.RotateHoisted(ct1, steps)
		})
		var got map[int]*Ciphertext
		withStrictCkks(params, false, func() {
			got = dc.serial.RotateHoisted(ct1, steps)
		})
		for _, s := range steps {
			requireCtEqual(t, got[s], want[s], fmt.Sprintf("%s: hoisted step %d", pname, s))
		}
	}
}

// TestStrictLazyLinearTransform runs a BSGS linear transform whose
// giant-step groups hold several diagonals each, so the fused group MAC
// (k-term lazy digit sums) is exercised. Checks three things: lazy
// output is bit-identical to strict, both emit identical operator traces
// (the fused sum must not change what the accelerator model prices), and
// the result still decrypts to M·z.
func TestStrictLazyLinearTransform(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	n := params.Slots

	// Matrix from a handful of generalized diagonals spanning two
	// giant-step groups (n1=16): d ∈ {0,1,2} → j=0, d ∈ {17,18} → j=16.
	rng := rand.New(rand.NewSource(23))
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2, 17, 18} {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		diags[d] = v
	}
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
		for d, v := range diags {
			m[r][(r+d)%n] = v[r]
		}
	}

	enc := NewEncoder(params)
	lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
	if err != nil {
		t.Fatal(err)
	}

	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, lt.Rotations(), false)
	ev := NewEvaluator(params, rlk, rtk)

	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 29)
	z := randomComplex(rng, n, 1.0)
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))

	var want, got *Ciphertext
	strictLog, lazyLog := &eventLog{}, &eventLog{}
	withStrictCkks(params, true, func() {
		ev.SetObserver(strictLog)
		want = ev.EvaluateLinearTransform(ct, lt)
	})
	withStrictCkks(params, false, func() {
		ev.SetObserver(lazyLog)
		got = ev.EvaluateLinearTransform(ct, lt)
	})
	ev.SetObserver(nil)
	strictTrace, lazyTrace := strictLog.counts(), lazyLog.counts()

	requireCtEqual(t, got, want, "linear transform strict vs lazy")

	if len(strictTrace) == 0 {
		t.Fatal("strict run emitted no operator trace")
	}
	for op, c := range strictTrace {
		if lazyTrace[op] != c {
			t.Errorf("trace parity: op %s strict=%d lazy=%d", op, c, lazyTrace[op])
		}
	}
	for op := range lazyTrace {
		if _, ok := strictTrace[op]; !ok {
			t.Errorf("trace parity: lazy emitted %s, strict did not", op)
		}
	}

	// Semantics: decrypt and compare against M·z.
	expect := make([]complex128, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			expect[r] += m[r][c] * z[c]
		}
	}
	decr := NewDecryptor(params, sk)
	assertClose(t, enc.Decode(decr.Decrypt(ev.Rescale(got))), expect, 1e-3, "linear transform decrypts to M·z")
}

// TestStrictKernelsLiteralFlag: the literal carries no kernel switch — a
// fresh instance runs the lazy production kernels, and SetStrictKernels
// selects the reference on both rings and back.
func TestStrictKernelsLiteralFlag(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if params.StrictKernels() {
		t.Fatal("a fresh instance runs the strict reference kernels")
	}
	params.SetStrictKernels(true)
	if !params.StrictKernels() || !params.RingP.StrictKernels() {
		t.Fatal("SetStrictKernels(true) not applied to both rings")
	}
	params.SetStrictKernels(false)
	if params.StrictKernels() {
		t.Fatal("SetStrictKernels(false) did not clear the flag")
	}
}
