package poseidon

import (
	"errors"
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
