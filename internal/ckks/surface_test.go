package ckks

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"poseidon/internal/ring"
)

// gridOps are the ten basic ops. Each has exactly three public forms: X
// panics and allocates, XInto panics and writes its destination, TryXInto
// returns the *OpError and writes its destination — a nil destination
// allocates, so an allocating Try form would only restate TryXInto(nil, …).
var gridOps = []string{"Add", "Sub", "Neg", "AddPlain", "MulPlain", "MulRelin", "Rescale", "Rotate", "Conjugate", "KeySwitch"}

// TestSurfaceGrid reflects over *Evaluator's method set and holds every
// basic op to the X / XInto / TryXInto grid: all three forms present with
// the result shape their failure mode implies, and no TryX form.
func TestSurfaceGrid(t *testing.T) {
	typ := reflect.TypeOf((*Evaluator)(nil))
	ctType := reflect.TypeOf((*Ciphertext)(nil))
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for _, op := range gridOps {
		for _, form := range []struct {
			name    string
			returns []reflect.Type
		}{
			{op, []reflect.Type{ctType}},
			{op + "Into", []reflect.Type{ctType}},
			{"Try" + op + "Into", []reflect.Type{ctType, errType}},
		} {
			m, ok := typ.MethodByName(form.name)
			if !ok {
				t.Errorf("%s: (*Evaluator).%s is missing", op, form.name)
				continue
			}
			var got []reflect.Type
			for i := 0; i < m.Type.NumOut(); i++ {
				got = append(got, m.Type.Out(i))
			}
			if !reflect.DeepEqual(got, form.returns) {
				t.Errorf("(*Evaluator).%s returns %v, want %v", form.name, got, form.returns)
			}
		}
		if _, ok := typ.MethodByName("Try" + op); ok {
			t.Errorf("%s: (*Evaluator).Try%s restates Try%sInto(nil, …)", op, op, op)
		}
	}
	t.Logf("%d ops × 3 forms", len(gridOps))
}

// TestPanickingSurfacesValidateFirst: every panicking surface that reads a
// field of its ciphertext checks the ciphertext first, so a nil or hollow
// one panics with the *OpError the panicking forms promise — of the
// surface's own op, wrapping ErrInvalidInput — never with a runtime error.
func TestPanickingSurfacesValidateFirst(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	ev := NewEvaluator(params, nil, nil)
	surfaces := []struct {
		op string
		f  func(ct *Ciphertext)
	}{
		{"DropLevel", func(ct *Ciphertext) { ev.DropLevel(ct, 0) }},
		{"SealIntegrity", func(ct *Ciphertext) { ev.SealIntegrity(ct) }},
		{"MulConst", func(ct *Ciphertext) { ev.MulConst(ct, 2) }},
		{"MulConstToScale", func(ct *Ciphertext) { ev.MulConstToScale(ct, 2, params.Scale) }},
		{"AddConst", func(ct *Ciphertext) { ev.AddConst(ct, 1) }},
		{"EvalPoly", func(ct *Ciphertext) { ev.EvalPoly(ct, []float64{1, 2}) }},
		{"EvalPoly", func(ct *Ciphertext) { ev.EvalChebyshev(ct, []float64{1, 2}, -1, 1) }},
	}
	inputs := []struct {
		name string
		ct   *Ciphertext
	}{
		{"nil", nil},
		{"zero value", &Ciphertext{}},
		{"no rows", &Ciphertext{C0: &ring.Poly{}, C1: &ring.Poly{}, Level: 1}},
		{"level above the chain", &Ciphertext{C0: &ring.Poly{}, C1: &ring.Poly{}, Level: 9}},
	}
	for i, s := range surfaces {
		for _, in := range inputs {
			err := panicked(func() { s.f(in.ct) })
			var oe *OpError
			if !errors.As(err, &oe) || oe.Op != s.op || !errors.Is(err, ErrInvalidInput) {
				t.Errorf("surface %d (%s), %s ciphertext: %v, want a %s *OpError wrapping ErrInvalidInput", i, s.op, in.name, err, s.op)
			}
		}
	}
}

// TestTryInnerSumWidth: a power-of-two width in [1, Slots] sums that many
// slots; any other width is ErrInvalidInput before a rotation runs (width 3
// would otherwise rotate by 1 and 2 and sum four slots).
func TestTryInnerSumWidth(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, tc.kgen.GenRotationKeys(tc.sk, []int{1, 2}, false))
	n := tc.params.Slots
	z := randomComplex(rand.New(rand.NewSource(33)), n, 1.0)
	ct := tc.encryptVec(z)

	for _, width := range []int{0, -4, 3, 6, 2 * n} {
		if _, err := ev.TryInnerSum(ct, width); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("width %d: %v, want ErrInvalidInput", width, err)
		}
	}
	for _, width := range []int{1, 4} {
		sum, err := ev.TryInnerSum(ct, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		want := make([]complex128, n)
		for i := range want {
			for k := 0; k < width; k++ {
				want[i] += z[(i+k)%n]
			}
		}
		assertClose(t, tc.decryptVec(sum), want, 1e-4, "inner sum")
	}
}
