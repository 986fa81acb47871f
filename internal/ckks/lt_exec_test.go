package ckks

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/fault"
)

// The linear transform is one more op exec runs (opLinTrans): these tests
// hold it to what exec gives every op — input-seal verification, the output
// seal, transactional retry, keys resolved before any stage, typed errors —
// and hold the two error paths around it (Bootstrap, DropLevel) to the typed
// surface too.

// panicked runs fn behind the recovery boundary the evaluator uses and
// returns what it made of a panic: an *OpError as it was, anything else as
// the ErrInternal of op "caller".
func panicked(fn func()) (err error) {
	level := -1
	defer recoverOp("caller", &level, &err)
	fn()
	return nil
}

// requireOpErr fails unless err is an *OpError of op wrapping sentinel.
func requireOpErr(t *testing.T, err error, op string, sentinel error, what string) {
	t.Helper()
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != op || !errors.Is(err, sentinel) {
		t.Fatalf("%s: %v, want a %s *OpError wrapping %v", what, err, op, sentinel)
	}
}

// newLtExecFixture is a transform with diagonals {0, 1, 2, 17, 18} at
// n1 = 16 — two baby steps, two giant-step groups, one of them rotated — on
// LogN8-L2, keyed by newLtFixture, with its unguarded result.
func newLtExecFixture(t *testing.T) (*ltFixture, *LinearTransform, *Ciphertext) {
	t.Helper()
	params := diffParamSets(t)["LogN8-L2"]
	rng := rand.New(rand.NewSource(83))
	enc := NewEncoder(params)
	m := ltMatFromDiags(params.Slots, ltRandDiags(rng, params.Slots, []int{0, 1, 2, 17, 18}))
	lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, 16)
	if err != nil {
		t.Fatal(err)
	}
	fx := newLtFixture(t, params, lt, enc, rng)
	return fx, lt, fx.ev.EvaluateLinearTransform(fx.ct, lt)
}

// TestLinearTransformGuarded: on a guarded evaluator a clean transform comes
// out sealed and bit-identical to the unguarded one, and a sealed input with
// one flipped bit is refused as ErrIntegrity, not evaluated.
func TestLinearTransformGuarded(t *testing.T) {
	fx, lt, want := newLtExecFixture(t)
	ev := NewEvaluator(fx.ev.params, fx.ev.rlk, fx.ev.rtks)
	ev.EnableGuards(7)
	in := fx.ct.CopyNew()
	ev.SealIntegrity(in)
	out := NewCiphertext(ev.params, lt.Level)

	got := ev.EvaluateLinearTransformInto(out, in, lt)
	requireCtEqual(t, got, want, "guarded transform")
	if got.seal == nil {
		t.Error("guarded transform output is not sealed")
	}

	in.C0.Coeffs[1][5] ^= 1 << 3
	err := panicked(func() { ev.EvaluateLinearTransformInto(out, in, lt) })
	requireOpErr(t, err, "LinTrans", ErrIntegrity, "transform of a corrupted sealed input")
}

// TestLinearTransformRecovered: under a recovery policy, a transient HBM
// fault on the input read is retried to the unguarded bits, and the retry
// rides the transform's own event after its phases and groups.
func TestLinearTransformRecovered(t *testing.T) {
	fx, lt, want := newLtExecFixture(t)
	ev := NewEvaluator(fx.ev.params, fx.ev.rlk, fx.ev.rtks)
	ev.EnableGuards(9)
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 3})
	log := &eventLog{}
	ev.SetObserver(log)
	in := fault.NewInjector(13)
	ev.params.RingQ.SetFaultInjector(in)
	defer ev.params.RingQ.SetFaultInjector(nil)
	ct := fx.ct.CopyNew()
	ev.SealIntegrity(ct)

	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Transient, 0)
	got := ev.EvaluateLinearTransform(ct, lt)
	requireCtEqual(t, got, want, "recovered transform")
	if s := in.Stats(); s.Injected != 1 || s.Healed != 1 {
		t.Fatalf("injector %+v: want one transient fault, healed", s)
	}
	events := log.all()
	wantSigs := []string{"LinTrans/hoist", "LinTrans/baby", "LinTrans", "LinTrans", "LinTrans/giant", "LinTrans/finish", "LinTrans retried unpriced"}
	if !slices.Equal(sigsOf(events), wantSigs) {
		t.Fatalf("events %q, want %q", sigsOf(events), wantSigs)
	}
	if last := events[len(events)-1]; last.Retries != 1 || last.Err != nil {
		t.Errorf("retry event %+v, want 1 retry and no error", last)
	}
}

// TestLinearTransformKeysUpFront: an evaluator holding the baby-step keys but
// not the giant-step one refuses the transform before any stage runs —
// ErrKeyMissing, no phase event, nothing left checked out of the arena.
func TestLinearTransformKeysUpFront(t *testing.T) {
	fx, lt, _ := newLtExecFixture(t)
	plan := lt.Plan()
	baby := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	for _, g := range plan.keyGal[:len(plan.babySteps)] {
		baby.Keys[g] = fx.ev.rtks.Keys[g]
	}
	ev := NewEvaluator(fx.ev.params, nil, baby)
	log := &eventLog{}
	ev.SetObserver(log)
	before := ev.params.ArenaStats().BytesInUse

	err := panicked(func() { ev.EvaluateLinearTransform(fx.ct, lt) })
	requireOpErr(t, err, "LinTrans", ErrKeyMissing, "transform without its giant-step key")
	if got := log.all(); len(got) != 0 {
		t.Errorf("refused transform reported %q, want nothing", sigsOf(got))
	}
	if after := ev.params.ArenaStats().BytesInUse; after != before {
		t.Errorf("arena BytesInUse %d → %d across a refused transform", before, after)
	}
}

// TestLinearTransformNilInput: a nil input is a usage error, not a bug.
func TestLinearTransformNilInput(t *testing.T) {
	fx, lt, _ := newLtExecFixture(t)
	err := panicked(func() { fx.ev.EvaluateLinearTransform(nil, lt) })
	requireOpErr(t, err, "LinTrans", ErrInvalidInput, "transform of nil")
}

// TestDropLevelTypedErrors: raising the level or dropping below 0 panics with
// an *OpError the recovery boundary passes through as ErrInvalidInput.
func TestDropLevelTypedErrors(t *testing.T) {
	fx, _, _ := newLtExecFixture(t)
	for _, level := range []int{fx.ct.Level + 1, -1} {
		err := panicked(func() { fx.ev.DropLevel(fx.ct, level) })
		requireOpErr(t, err, "DropLevel", ErrInvalidInput, fmt.Sprintf("DropLevel to %d", level))
	}
}

// TestBootstrapInvalidInput: a malformed input comes back as ErrInvalidInput
// and one at the wrong scale as ErrScaleMismatch from Bootstrap, which
// returns its typed errors rather than panicking.
func TestBootstrapInvalidInput(t *testing.T) {
	fx := newBootFixture(t, 5, 1)
	for name, ct := range map[string]*Ciphertext{
		"hollow":         {},
		"level 0, no C1": {C0: fx.ct.C0, Scale: fx.params.Scale},
		"nil ciphertext": nil,
	} {
		var out *Ciphertext
		var err error
		if p := panicked(func() { out, err = fx.boot.Bootstrap(ct) }); p != nil {
			t.Fatalf("%s: Bootstrap panicked: %v", name, p)
		}
		if out != nil || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: Bootstrap returned %v, %v; want ErrInvalidInput", name, out, err)
		}
	}

	// A well-formed ciphertext at the wrong scale is the typed scale error,
	// reported by Bootstrap at the input's level.
	twice := *fx.ct
	twice.Scale *= 2
	out, err := fx.boot.Bootstrap(&twice)
	var oe *OpError
	if out != nil || !errors.Is(err, ErrScaleMismatch) || !errors.As(err, &oe) || oe.Op != "Bootstrap" || oe.Level != fx.ct.Level {
		t.Errorf("scale 2Δ: Bootstrap returned %v, %v; want a Bootstrap *OpError wrapping ErrScaleMismatch", out, err)
	}
}
