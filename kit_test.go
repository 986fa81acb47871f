package poseidon

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func testKit(t testing.TB) *Kit {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewKit(params, 123)
}

func TestKitRoundTrip(t *testing.T) {
	kit := testKit(t)
	in := []complex128{1 + 2i, -0.5, 3.25i, 0}
	out := kit.DecryptValues(kit.EncryptValues(in))
	for i, v := range in {
		if cmplx.Abs(out[i]-v) > 1e-6 {
			t.Errorf("slot %d: %v != %v", i, out[i], v)
		}
	}
}

func TestKitEncryptReals(t *testing.T) {
	kit := testKit(t)
	in := []float64{3.5, -1.25, 0.75}
	out := kit.DecryptValues(kit.EncryptReals(in))
	for i, v := range in {
		if math.Abs(real(out[i])-v) > 1e-6 || math.Abs(imag(out[i])) > 1e-6 {
			t.Errorf("slot %d: %v != %v", i, out[i], v)
		}
	}
}

func TestKitInnerSum(t *testing.T) {
	kit := testKit(t)
	n := 16
	vals := make([]float64, n)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i+1) * 0.125
		want += vals[i]
	}
	ct := kit.EncryptReals(vals)
	sum := kit.InnerSum(ct, n)
	got := real(kit.DecryptValues(sum)[0])
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("InnerSum=%.6f want %.6f", got, want)
	}
}

func TestKitInnerSumPanicsOnBadWidth(t *testing.T) {
	kit := testKit(t)
	ct := kit.EncryptReals([]float64{1, 2, 3})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("non-power-of-two width should panic")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("InnerSum panicked with %#v, want an error wrapping ErrInvalidInput", r)
		}
	}()
	kit.InnerSum(ct, 3)
}

func TestPublicAPIModelFlow(t *testing.T) {
	model, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	rep := Simulate(model, DefaultEnergy(), BenchmarkPackedBoot(PaperWorkloadSpec()))
	if rep.TotalTime <= 0 || rep.TotalEnergy <= 0 {
		t.Error("simulation should produce positive totals")
	}
	// Paper ballpark: packed bootstrapping ~127 ms; accept a 3× band.
	ms := rep.TotalTime * 1e3
	if ms < 127.0/3 || ms > 127.0*3 {
		t.Errorf("packed bootstrapping %.1f ms, outside the paper's 127 ms ×3 band", ms)
	}
}

func TestPublicAPIEndToEndMultiply(t *testing.T) {
	kit := testKit(t)
	a := []float64{1.5, -2, 0.5}
	ct := kit.EncryptReals(a)
	sq := kit.Eval.Rescale(kit.Eval.MulRelin(ct, ct))
	out := kit.DecryptValues(sq)
	for i, v := range a {
		if math.Abs(real(out[i])-v*v) > 1e-4 {
			t.Errorf("slot %d: %.6f != %.6f", i, real(out[i]), v*v)
		}
	}
}

// LinearTransformKeys generates keys only for Galois elements the kit does
// not hold yet: the power-of-two ladder keys NewKit made survive untouched
// (same pointers), a second call generates nothing, and the transform
// evaluates correctly on the merged set.
func TestKitLinearTransformKeysSkipsHeld(t *testing.T) {
	kit := testKit(t)
	n := kit.Params.Slots
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
		for d := 0; d < 12; d++ { // band 0..11: steps 1, 2, 4, 8 are ladder keys
			m[r][(r+d)%n] = complex(float64(d+1)/16, 0)
		}
	}
	lt, err := NewLinearTransformBSGS(kit.Enc, m, kit.Params.MaxLevel(), kit.Params.Scale, 16)
	if err != nil {
		t.Fatal(err)
	}
	before := map[uint64]any{}
	for g, k := range kit.RTK.Keys {
		before[g] = k
	}
	gals := kit.LinearTransformKeys(lt)
	if len(gals) != 11 {
		t.Fatalf("plan needs %d Galois elements, want 11", len(gals))
	}
	if got, want := len(kit.RTK.Keys), len(before)+11-4; got != want {
		t.Errorf("key set grew to %d, want %d (4 of the 11 steps were already held)", got, want)
	}
	for g, k := range before {
		if any(kit.RTK.Keys[g]) != k {
			t.Errorf("held key for Galois element %d was regenerated", g)
		}
	}
	after := len(kit.RTK.Keys)
	kit.LinearTransformKeys(lt)
	if len(kit.RTK.Keys) != after {
		t.Error("second provisioning of the same transform changed the key set")
	}

	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(float64(i%7)/8, 0)
	}
	out := kit.DecryptValues(kit.Eval.Rescale(kit.Eval.EvaluateLinearTransform(kit.EncryptValues(z), lt)))
	for r := 0; r < n; r += 37 {
		var want complex128
		for d := 0; d < 12; d++ {
			want += m[r][(r+d)%n] * z[(r+d)%n]
		}
		if cmplx.Abs(out[r]-want) > 1e-4 {
			t.Errorf("slot %d: %v != %v", r, out[r], want)
		}
	}
}

// panicErr runs f and returns what it panicked with as an error: nil if it
// did not panic, a panic value that is no error as plain text.
func panicErr(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); err == nil {
				err = fmt.Errorf("panicked with %v", r)
			}
		}
	}()
	f()
	return nil
}

// Every float that becomes a residue — a slot value, a constant, a matrix
// entry — goes through a checked conversion: one that is not finite, or
// whose scaled coefficient leaves int64, is an ErrInvalidInput *OpError,
// returned by the Try and constructor forms and panicked with by the others.
// A complex constant whose scaled value only leaves int64 is still exact.
func TestFloatsBecomeResiduesChecked(t *testing.T) {
	kit := testKit(t)
	ct := kit.EncryptValues([]complex128{0.5, -0.25})
	nan, inf := math.NaN(), math.Inf(1)
	encrypt := func(v complex128) func() error {
		return func() error { _, err := kit.TryEncryptValues([]complex128{v, 1}); return err }
	}
	panics := func(f func()) func() error { return func() error { return panicErr(f) } }
	transform := func(v complex128) func() error {
		return func() error {
			m := make([][]complex128, kit.Params.Slots)
			for i := range m {
				m[i] = make([]complex128, kit.Params.Slots)
				m[i][i] = 1
			}
			m[0][1] = v
			_, err := NewLinearTransform(kit.Enc, m, kit.Params.MaxLevel(), kit.Params.Scale)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"TryEncryptValues/NaN", encrypt(complex(nan, 0))},
		{"TryEncryptValues/+Inf", encrypt(complex(inf, 0))},
		{"TryEncryptValues/1e12", encrypt(1e12)},
		{"Encode/too many values", panics(func() {
			kit.Enc.Encode(make([]complex128, kit.Params.Slots+1), kit.Params.MaxLevel(), kit.Params.Scale)
		})},
		{"MulConst/NaN", panics(func() { kit.Eval.MulConst(ct, complex(nan, 0)) })},
		{"MulConst/+Inf", panics(func() { kit.Eval.MulConst(ct, complex(inf, 0)) })},
		{"MulConst/i·NaN", panics(func() { kit.Eval.MulConst(ct, complex(0, nan)) })},
		{"AddConst/NaN", panics(func() { kit.Eval.AddConst(ct, complex(nan, 0)) })},
		{"NewLinearTransform/NaN", transform(complex(nan, 0))},
		{"NewLinearTransform/+Inf", transform(complex(0, inf))},
	} {
		var oe *OpError
		if err := tc.run(); !errors.As(err, &oe) || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: %v, want an ErrInvalidInput *OpError", tc.name, err)
		}
	}

	// At the top prime (40 bits) 1e8 scales past int64: the residues come
	// from the exact integer, not a wrapped one. The product carries the
	// input's noise times 1e8, hence the relative bound.
	c := complex(1e8, 1)
	got := kit.DecryptValues(kit.Eval.Rescale(kit.Eval.MulConst(ct, c)))
	for i, v := range []complex128{0.5, -0.25} {
		if cmplx.Abs(got[i]-v*c) > 1e-6*cmplx.Abs(v*c) {
			t.Errorf("MulConst(%v) slot %d = %v, want %v", c, i, got[i], v*c)
		}
	}
}

// Decryption validates a ciphertext with the evaluator's own check: a nil
// one, a level outside the chain or above the limbs, polys outside the NTT
// domain (what UnmarshalBinary builds from a header NTT word of 0), or a
// short C1 is the
// ErrInvalidInput *OpError the evaluator reports (TryDecryptValues returns
// it, Decrypt panics with it), and a ciphertext wider than its level
// decrypts as the one cut to it.
func TestDecryptValidatesLikeEvaluator(t *testing.T) {
	kit := testKit(t)
	in := []complex128{0.5, -0.25i}
	ct := kit.EncryptValues(in)
	low := kit.Eval.Rescale(kit.EncryptValues(in))
	with := func(base *Ciphertext, f func(*Ciphertext)) *Ciphertext {
		c := *base
		f(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		ct   *Ciphertext
	}{
		{"nil", nil},
		{"negative level", with(ct, func(c *Ciphertext) { c.Level = -1 })},
		{"level above the chain", with(ct, func(c *Ciphertext) { c.Level = kit.Params.MaxLevel() + 1 })},
		{"level above the limbs", with(low, func(c *Ciphertext) { c.Level = low.Level + 1 })},
		{"coefficient domain", with(ct, func(c *Ciphertext) {
			c.C0, c.C1 = ct.C0.CopyNew(), ct.C1.CopyNew()
			kit.Params.RingQ.INTT(c.C0)
			kit.Params.RingQ.INTT(c.C1)
		})},
		{"short C1", with(ct, func(c *Ciphertext) {
			c1 := *ct.C1
			c1.Coeffs = c1.Coeffs[:ct.Level]
			c.C1 = &c1
		})},
	} {
		_, evalErr := kit.Eval.TryAddInto(nil, tc.ct, tc.ct)
		var want *OpError
		if !errors.As(evalErr, &want) || !errors.Is(evalErr, ErrInvalidInput) {
			t.Fatalf("%s: the evaluator reports %v", tc.name, evalErr)
		}
		_, tryErr := kit.TryDecryptValues(tc.ct)
		panicked := panicErr(func() { kit.Decr.Decrypt(tc.ct) })
		for surface, err := range map[string]error{"TryDecryptValues": tryErr, "Decrypt": panicked} {
			var oe *OpError
			if !errors.As(err, &oe) || !errors.Is(err, ErrInvalidInput) || oe.Detail != want.Detail {
				t.Errorf("%s: %s gives %v, want ErrInvalidInput (%s)", tc.name, surface, err, want.Detail)
			}
		}
	}

	wide := with(ct, func(c *Ciphertext) { c.Level = 1 })
	got, err := kit.TryDecryptValues(wide)
	if err != nil {
		t.Fatalf("a ciphertext wider than its level: %v", err)
	}
	for i, v := range in {
		if cmplx.Abs(got[i]-v) > 1e-6 {
			t.Errorf("wide slot %d = %v, want %v", i, got[i], v)
		}
	}
}
