package ckks

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"poseidon/internal/fault"
	"poseidon/internal/trace"
)

// eventLog is the package's one test sink: it keeps every event it is handed,
// under a lock because Bootstrap and the shared-sink test report from more
// than one goroutine.
type eventLog struct {
	mu     sync.Mutex
	events []trace.OpEvent
}

func (l *eventLog) ObserveOp(e trace.OpEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// all returns a copy of the events so far, in arrival order.
func (l *eventLog) all() []trace.OpEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// failed returns the events that report a failure.
func (l *eventLog) failed() []trace.OpEvent {
	var out []trace.OpEvent
	for _, e := range l.all() {
		if e.Err != nil {
			out = append(out, e)
		}
	}
	return out
}

// at returns the events reported at one level.
func (l *eventLog) at(level int) []trace.OpEvent {
	var out []trace.OpEvent
	for _, e := range l.all() {
		if e.Level == level {
			out = append(out, e)
		}
	}
	return out
}

// counts tallies the events per signature: a successful basic op under its
// name, a phase under "<op>/<phase>".
func (l *eventLog) counts() map[string]int {
	n := map[string]int{}
	for _, e := range l.all() {
		n[sig(e)]++
	}
	return n
}

// eventRow is one descriptor with operands it succeeds on.
type eventRow struct {
	name string
	d    *opDesc
	in   operands
}

// eventFixture is everything one evaluator needs to run every descriptor and
// a linear transform at one level. Events carry the level they ran at, so two
// fixtures at different levels can share a sink and still tell their events
// apart.
type eventFixture struct {
	ev    *Evaluator
	level int
	rows  []eventRow
	ct    *Ciphertext
	lt    *LinearTransform
}

func eventParams(t *testing.T) *Parameters {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// eventMatrix has diagonals {0, 1, 2, 17, 18}: two giant-step groups at
// n1 = 16, one of them rotated.
func eventMatrix(n int) [][]complex128 {
	rng := rand.New(rand.NewSource(5))
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
		for _, d := range []int{0, 1, 2, 17, 18} {
			m[r][(r+d)%n] = complex(rng.Float64()-0.5, 0)
		}
	}
	return m
}

func newEventFixture(t *testing.T, ev *Evaluator, kgen *KeyGenerator, sk *SecretKey, lt *LinearTransform) *eventFixture {
	t.Helper()
	params, level := ev.params, lt.Level
	enc := NewEncoder(params)
	encr := NewEncryptor(params, kgen.GenPublicKey(sk), int64(level))
	rng := rand.New(rand.NewSource(int64(level)))
	fresh := func() *Ciphertext {
		ct := encr.Encrypt(enc.Encode(randomComplex(rng, params.Slots, 1.0), level, params.Scale))
		ev.SealIntegrity(ct)
		return ct
	}
	a, b := fresh(), fresh()
	pt := enc.Encode(randomComplex(rng, params.Slots, 1.0), level, params.Scale)
	three := params.newScalar(3, 1, level)
	half := params.newScalar(0.5, a.Scale, level)
	held := ev.Hoist(a)
	t.Cleanup(held.Release)
	return &eventFixture{ev: ev, level: level, ct: a, lt: lt, rows: []eventRow{
		{"Add", &opAdd, operands{a: a, b: b}},
		{"Sub", &opSub, operands{a: a, b: b}},
		{"Neg", &opNeg, operands{a: a}},
		{"AddPlain", &opAddPlain, operands{a: a, pt: pt}},
		{"MulPlain", &opMulPlain, operands{a: a, pt: pt}},
		{"MulRelin", &opMulRelin, operands{a: a, b: b}},
		{"Rescale", &opRescale, operands{a: a}},
		{"Rotate", &opGalois, operands{a: a, g: ev.rotG(1)}},
		{"KeySwitch", &opKeySwitch, operands{a: a, key: &ev.rlk.SwitchingKey}},
		{"MulScalar", &opMulScalar, operands{a: a, s: &three}},
		{"MacScalar", &opMacScalar, operands{a: a, b: b, s: &three}},
		{"AddScalar", &opAddScalar, operands{a: a, s: &half}},
		{"MulByI", &opMulByI, operands{a: a}},
		{"Hoist", &opHoist, operands{a: a, h: &Hoisted{ev: ev, ct: a}}},
		{"HoistedRotate", &opHoistedRotate, operands{a: a, h: held, g: ev.rotG(1)}},
	}}
}

// sig is what a test compares of an event: everything but the clock readings.
func sig(e trace.OpEvent) string {
	s := e.Op
	if e.Phase != "" {
		s += "/" + e.Phase
	}
	if e.Err != nil {
		s += " failed"
	}
	if e.Retries > 0 {
		s += " retried"
	}
	if e.Unpriced {
		s += " unpriced"
	}
	return s
}

func sigsOf(events []trace.OpEvent) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = sig(e)
	}
	return out
}

// step runs fn and returns the events it added at the fixture's level,
// checking what holds of every event: a failure carries no duration, and a
// recovery latency comes with retries and only with them.
func (fx *eventFixture) step(t *testing.T, log *eventLog, what string, fn func()) []trace.OpEvent {
	t.Helper()
	before := len(log.at(fx.level))
	fn()
	added := log.at(fx.level)[before:]
	for _, e := range added {
		if e.Err != nil && e.Dur != 0 {
			t.Errorf("%s: failed %s reports duration %v", what, e.Op, e.Dur)
		}
		if (e.Retries > 0) != (e.Recovery > 0) {
			t.Errorf("%s: %s reports %d retries with recovery latency %v", what, e.Op, e.Retries, e.Recovery)
		}
	}
	return added
}

// runAll drives every descriptor and the linear transform through both
// outcomes and checks each call's events: an observed descriptor reports
// exactly one event per call, success or failure; an unobserved one (HNeg,
// MulByI, Hoist) and the identity rotation report nothing; a transform
// reports its four phases around one LinTrans per group, and nothing when it
// refuses its input.
func (fx *eventFixture) runAll(t *testing.T, log *eventLog) {
	ev := fx.ev
	for _, row := range fx.rows {
		var want []string
		if row.d.observe {
			want = []string{row.d.name}
		}
		var err error
		got := fx.step(t, log, row.name, func() { _, err = ev.exec(row.d, nil, row.in) })
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if row.in.h != nil && row.d.noDest {
			row.in.h.Release()
		}
		if !slices.Equal(sigsOf(got), want) {
			t.Errorf("%s: events %q, want %q", row.name, sigsOf(got), want)
		}

		bad := row.in
		bad.a = &Ciphertext{Level: fx.level}
		if row.d.observe {
			want = []string{row.d.name + " failed"}
		}
		got = fx.step(t, log, row.name, func() { _, err = ev.exec(row.d, nil, bad) })
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s on a hollow operand: %v, want ErrInvalidInput", row.name, err)
		}
		if !slices.Equal(sigsOf(got), want) {
			t.Errorf("failed %s: events %q, want %q", row.name, sigsOf(got), want)
		}
		if len(got) == 1 && got[0].Err != err {
			t.Errorf("failed %s: event carries %v, the call returned %v", row.name, got[0].Err, err)
		}
	}

	got := fx.step(t, log, "identity rotation", func() { ev.Rotate(fx.ct, 0) })
	if len(got) != 0 {
		t.Errorf("identity rotation: events %q, want none", sigsOf(got))
	}

	got = fx.step(t, log, "LinTrans", func() { ev.EvaluateLinearTransform(fx.ct, fx.lt) })
	want := []string{"LinTrans/hoist", "LinTrans/baby", "LinTrans", "LinTrans", "LinTrans/giant", "LinTrans/finish"}
	if !slices.Equal(sigsOf(got), want) {
		t.Errorf("LinTrans: events %q, want %q", sigsOf(got), want)
	}
	got = fx.step(t, log, "LinTrans below its level", func() {
		defer func() { recover() }()
		ev.EvaluateLinearTransform(ev.DropLevel(fx.ct, fx.level-1), fx.lt)
	})
	if len(got) != 0 {
		t.Errorf("refused LinTrans: events %q, want none", sigsOf(got))
	}
}

// TestOpEventsPerCall is the emit contract, site by site: what each of the
// fifteen descriptors and the linear-transform engine reports for each
// outcome, what the recovery loop adds, and that two evaluators sharing the
// parameter set's record free list and one sink neither lose, duplicate nor
// mix up events (the point of running it under -race).
func TestOpEventsPerCall(t *testing.T) {
	params := eventParams(t)
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	enc := NewEncoder(params)
	top := params.MaxLevel()
	var lts [2]*LinearTransform
	steps := []int{1}
	for i := range lts {
		lt, err := NewLinearTransformBSGS(enc, eventMatrix(params.Slots), top-i, params.Scale, 16)
		if err != nil {
			t.Fatal(err)
		}
		lts[i] = lt
		steps = append(steps, lt.Rotations()...)
	}
	ev := NewEvaluator(params, kgen.GenRelinearizationKey(sk), kgen.GenRotationKeys(sk, steps, false))
	ev.EnableGuards(21)
	in := fault.NewInjector(101)
	params.RingQ.SetFaultInjector(in)
	defer params.RingQ.SetFaultInjector(nil)
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 3})
	log := &eventLog{}
	ev.SetObserver(log)

	fx := newEventFixture(t, ev, kgen, sk, lts[0])
	if len(fx.rows) != 15 {
		t.Fatalf("%d descriptors in the table, safe.go declares 15", len(fx.rows))
	}
	fx.runAll(t, log)
	solo := sigsOf(log.at(fx.level))

	// What the recovery loop adds. A transient fault on the first limb read of
	// the input verification costs one re-execution: the op's one event says
	// so, and an op that reports nothing on its own account reports exactly
	// that, marked so that no consumer prices it.
	a := fx.ct
	for _, row := range []struct {
		name string
		d    *opDesc
		in   operands
		want string
	}{
		{"Add", &opAdd, operands{a: a, b: a}, "HAdd retried"},
		{"Neg", &opNeg, operands{a: a}, "HNeg retried unpriced"},
		{"MulByI", &opMulByI, operands{a: a}, "MulByI retried unpriced"},
		{"Hoist", &opHoist, operands{a: a, h: &Hoisted{ev: ev, ct: a}}, "Rotation retried unpriced"},
		{"identity rotation", &opGalois, operands{a: a, g: 1}, "Rotation retried unpriced"},
	} {
		in.ResetVisits()
		in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Transient, 0)
		var err error
		got := fx.step(t, log, row.name, func() { _, err = ev.exec(row.d, nil, row.in) })
		if err != nil {
			t.Errorf("recovered %s: %v", row.name, err)
		}
		if row.in.h != nil {
			row.in.h.Release()
		}
		if !slices.Equal(sigsOf(got), []string{row.want}) {
			t.Errorf("recovered %s: events %q, want [%q]", row.name, sigsOf(got), row.want)
		}
	}
	// A sticky one (it stays in the operand it hit, so that is a copy)
	// exhausts the budget: still one event, carrying the retries and the error.
	victim := a.CopyNew()
	ev.SealIntegrity(victim)
	in.ResetVisits()
	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Sticky, 0)
	var err error
	got := fx.step(t, log, "sticky Add", func() { _, err = ev.TryAddInto(nil, victim, a) })
	if !errors.Is(err, ErrIntegrity) || !slices.Equal(sigsOf(got), []string{"HAdd failed retried"}) || got[0].Retries != 2 {
		t.Errorf("unrecoverable Add: %v with events %+v, want ErrIntegrity and one failed HAdd retried twice of a 3-attempt budget", err, got)
	}

	// Two evaluators, one parameter set, one sink, at once: each must find
	// exactly its own events, the same ones as when it ran alone.
	fxs := []*eventFixture{fx, newEventFixture(t, ev.WithWorkers(2), kgen, sk, lts[1])}
	shared := &eventLog{}
	var wg sync.WaitGroup
	for _, f := range fxs {
		f.ev.SetObserver(shared)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.runAll(t, shared)
		}()
	}
	wg.Wait()
	for _, f := range fxs {
		if got := sigsOf(shared.at(f.level)); !slices.Equal(got, solo) {
			t.Errorf("level-%d evaluator beside another: events %q, alone %q", f.level, got, solo)
		}
	}
	if got, want := len(shared.all()), 2*len(solo); got != want {
		t.Errorf("shared sink holds %d events, want %d: nothing at any other level", got, want)
	}
}
