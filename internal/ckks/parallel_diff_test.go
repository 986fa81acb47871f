package ckks

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Differential suite for the limb-parallel execution engine: every evaluator
// operation must be BIT-IDENTICAL across worker counts. The workers=1
// evaluator is the reference; parallel evaluators (2 workers, GOMAXPROCS,
// and an oversubscribed pool) must reproduce its exact ciphertext
// coefficients, not just decrypt to close values. This is what licenses
// flipping worker counts freely in production: parallelism is an execution
// detail, never a numerical one.

// diffParamSets returns the parameter sets the differential table runs on:
// a shallow 3-limb set and a deeper, larger-ring set with two special primes
// (so the keyswitch digit loop has ≥2 digits and ModDown drops α=2 limbs).
func diffParamSets(t testing.TB) map[string]*Parameters {
	t.Helper()
	sets := map[string]ParametersLiteral{
		"LogN8-L2": {
			LogN:     8,
			LogQ:     []int{50, 40, 40},
			LogP:     []int{51},
			LogScale: 40,
		},
		"LogN9-L4-alpha2": {
			LogN:     9,
			LogQ:     []int{55, 45, 45, 45, 45},
			LogP:     []int{58, 58},
			LogScale: 45,
		},
	}
	out := map[string]*Parameters{}
	for name, lit := range sets {
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatalf("params %s: %v", name, err)
		}
		out[name] = params
	}
	return out
}

// diffWorkerCounts are the parallel configurations checked against the
// serial reference: minimal parallelism, the shared default pool, and an
// oversubscribed pool (more workers than limbs, exercising the early-return
// and partial-claim paths).
func diffWorkerCounts() []int {
	return []int{2, runtime.GOMAXPROCS(0), 2*runtime.GOMAXPROCS(0) + 3}
}

// diffContext is the keyed setup shared by every differential case.
type diffContext struct {
	params *Parameters
	enc    *Encoder
	sk     *SecretKey
	swk    *SwitchingKey // switches to a fresh secret; exercises KeySwitch
	serial *Evaluator    // workers=1 reference
}

func newDiffContext(t testing.TB, params *Parameters) *diffContext {
	t.Helper()
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	sk2 := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1, -1, 2}, true)
	return &diffContext{
		params: params,
		enc:    NewEncoder(params),
		sk:     sk,
		swk:    kgen.genSwitchingKey(sk.Value.Q, sk2, params.MaxLevel()),
		serial: NewEvaluator(params, rlk, rtk).WithWorkers(1),
	}
}

// freshInputs deterministically builds the operand ciphertexts/plaintext.
// Encryption itself is not under test, so inputs are built once and shared;
// operations never mutate their operands.
func (dc *diffContext) freshInputs(seed int64) (ct1, ct2 *Ciphertext, pt *Plaintext) {
	rng := rand.New(rand.NewSource(seed))
	kgen := NewKeyGenerator(dc.params, 42)
	pk := kgen.GenPublicKey(dc.sk)
	encr := NewEncryptor(dc.params, pk, seed+1)
	z1 := randomComplex(rng, dc.params.Slots, 1.0)
	z2 := randomComplex(rng, dc.params.Slots, 1.0)
	ct1 = encr.Encrypt(dc.enc.Encode(z1, dc.params.MaxLevel(), dc.params.Scale))
	ct2 = encr.Encrypt(dc.enc.Encode(z2, dc.params.MaxLevel(), dc.params.Scale))
	pt = dc.enc.Encode(randomComplex(rng, dc.params.Slots, 1.0), dc.params.MaxLevel(), dc.params.Scale)
	return ct1, ct2, pt
}

func requireCtEqual(t *testing.T, got, want *Ciphertext, msg string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil ciphertext (got=%v want=%v)", msg, got != nil, want != nil)
	}
	if got.Level != want.Level {
		t.Fatalf("%s: level %d != %d", msg, got.Level, want.Level)
	}
	if got.Scale != want.Scale {
		t.Fatalf("%s: scale %v != %v", msg, got.Scale, want.Scale)
	}
	if !got.C0.Equal(want.C0) {
		t.Fatalf("%s: C0 coefficients differ from serial reference", msg)
	}
	if !got.C1.Equal(want.C1) {
		t.Fatalf("%s: C1 coefficients differ from serial reference", msg)
	}
}

// diffOps is the operation table: each entry runs one evaluator op on fixed
// inputs. Each must be a pure function of (ev, inputs).
var diffOps = []struct {
	name string
	run  func(ev *Evaluator, ct1, ct2 *Ciphertext, pt *Plaintext, dc *diffContext) *Ciphertext
}{
	{"Add", func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Add(a, b)
	}},
	{"Sub", func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Sub(a, b)
	}},
	{"Neg", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Neg(a)
	}},
	{"AddPlain", func(ev *Evaluator, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
		return ev.AddPlain(a, pt)
	}},
	{"MulPlain", func(ev *Evaluator, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulPlain(a, pt)
	}},
	{"MulRelin", func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulRelin(a, b)
	}},
	{"Rescale", func(ev *Evaluator, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Rescale(ev.MulPlain(a, pt))
	}},
	{"Rotate+1", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Rotate(a, 1)
	}},
	{"Rotate-1", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Rotate(a, -1)
	}},
	{"Conjugate", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Conjugate(a)
	}},
	{"KeySwitch", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, dc *diffContext) *Ciphertext {
		return ev.KeySwitch(a, dc.swk)
	}},
	{"MulConst", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulConst(a, complex(0.75, -1.25))
	}},
	{"MulConstRescale", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulConstRescale(a, complex(-2.5, 0.5))
	}},
	{"AddConst", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.AddConst(a, complex(1.5, -0.25))
	}},
	{"MulByI", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulByI(a)
	}},
	{"MulConstReal", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.MulConstRescale(a, -0.625)
	}},
	{"AddConstReal", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.AddConst(a, 1.5)
	}},
	{"EvalPoly", func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.EvalPoly(a, []float64{0.5, -1, 2}) // two levels: fits the shallow set
	}},
	{"MulRelinRescale", func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
		return ev.Rescale(ev.MulRelin(a, b))
	}},
	{"DeepChain", func(ev *Evaluator, a, b *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
		// A multi-op chain: divergence anywhere surfaces at the end.
		x := ev.Rescale(ev.MulRelin(a, b))
		x = ev.Add(x, ev.Rotate(x, 1))
		return ev.Rescale(ev.MulConst(x, complex(0.5, 0.5)))
	}},
}

// TestParallelDiffEvaluatorOps is the differential table: every op × every
// parameter set × every worker count, bit-compared against workers=1.
func TestParallelDiffEvaluatorOps(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(7)
		for _, op := range diffOps {
			want := op.run(dc.serial, ct1, ct2, pt, dc)
			for _, w := range diffWorkerCounts() {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", pname, op.name, w), func(t *testing.T) {
					ev := dc.serial.WithWorkers(w)
					got := op.run(ev, ct1, ct2, pt, dc)
					requireCtEqual(t, got, want, op.name)
				})
			}
		}
	}
}

// TestParallelDiffRotateHoisted checks the hoisted path (shared digit
// decomposition + per-rotation NTT-domain permutation) bit-for-bit against
// both the serial hoisted path and the serial one-shot Rotate.
func TestParallelDiffRotateHoisted(t *testing.T) {
	steps := []int{0, 1, -1, 2}
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, _, _ := dc.freshInputs(11)
		want := dc.serial.RotateHoisted(ct1, steps)
		for _, w := range diffWorkerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", pname, w), func(t *testing.T) {
				got := dc.serial.WithWorkers(w).RotateHoisted(ct1, steps)
				if len(got) != len(want) {
					t.Fatalf("result count %d != %d", len(got), len(want))
				}
				for _, s := range steps {
					requireCtEqual(t, got[s], want[s], fmt.Sprintf("hoisted step %d", s))
				}
			})
		}
		// Hoisted must also agree with the plain per-rotation path.
		for _, s := range steps {
			requireCtEqual(t, want[s], dc.serial.Rotate(ct1, s), fmt.Sprintf("%s: hoisted vs Rotate(%d)", pname, s))
		}
	}
}

// TestParallelDiffDecrypts ties bit-identity back to semantics: the parallel
// evaluator's output decrypts to the same plaintext (trivially, since the
// ciphertexts are equal — this guards against a bug making both paths
// identically wrong in a way the scheme tests would catch).
func TestParallelDiffDecrypts(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	dc := newDiffContext(t, params)
	ct1, ct2, _ := dc.freshInputs(13)
	decr := NewDecryptor(params, dc.sk)

	ev := dc.serial.WithWorkers(runtime.GOMAXPROCS(0))
	got := ev.Rescale(ev.MulRelin(ct1, ct2))

	rng := rand.New(rand.NewSource(13))
	z1 := randomComplex(rng, params.Slots, 1.0)
	z2 := randomComplex(rng, params.Slots, 1.0)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	assertClose(t, dc.enc.Decode(decr.Decrypt(got)), want, 1e-4, "parallel MulRelin+Rescale decrypts")
}

// TestParametersWorkersOption checks the ParametersLiteral.Workers plumbing:
// an evaluator inherits the params' pool, and results remain bit-identical
// to the default-pool configuration.
func TestParametersWorkersOption(t *testing.T) {
	base := ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
	}
	for _, workers := range []int{1, 2, 5} {
		lit := base
		lit.Workers = workers
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		if got := params.Workers(); got != workers {
			t.Fatalf("params.Workers()=%d want %d", got, workers)
		}
		kgen := NewKeyGenerator(params, 42)
		sk := kgen.GenSecretKey()
		rlk := kgen.GenRelinearizationKey(sk)
		ev := NewEvaluator(params, rlk, nil)
		if got := ev.Workers(); got != workers {
			t.Fatalf("evaluator inherited %d workers, want %d", got, workers)
		}

		pk := kgen.GenPublicKey(sk)
		encr := NewEncryptor(params, pk, 99)
		enc := NewEncoder(params)
		rng := rand.New(rand.NewSource(5))
		z := randomComplex(rng, params.Slots, 1.0)
		ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))
		got := ev.Rescale(ev.MulRelin(ct, ct))
		want := ev.WithWorkers(1).Rescale(ev.WithWorkers(1).MulRelin(ct, ct))
		requireCtEqual(t, got, want, fmt.Sprintf("params-level workers=%d", workers))
	}
}
