package ckks

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
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
