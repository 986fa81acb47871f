package ckks

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"poseidon/internal/fault"
	"poseidon/internal/trace"
)

// bootFixture is a B9-shaped bootstrapper (K = 28) on a ring of the given
// size with one level-0 input.
type bootFixture struct {
	params *Parameters
	boot   *Bootstrapper
	ct     *Ciphertext
}

func newBootFixture(t testing.TB, logN, workers int) *bootFixture {
	t.Helper()
	params := b9Params(t, logN, workers)
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 11)
	sk := kgen.GenSecretKey()
	boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
	if err != nil {
		t.Fatal(err)
	}
	z := randomComplex(rand.New(rand.NewSource(13)), params.Slots, 1.0)
	ct := NewEncryptor(params, kgen.GenPublicKey(sk), 12).Encrypt(enc.Encode(z, 0, params.Scale))
	return &bootFixture{params: params, boot: boot, ct: ct}
}

// TestZeroAllocEvalMod: the compiled sine evaluated into a preallocated
// destination on a serial evaluator touches the Go heap zero times, and the
// arena not at all once warm — no misses, no growth, nothing left checked
// out. The last is the slot-shape rule: a slot is checked out at the level
// its sum is formed at and rescaled in place, and must still return to the
// class it was drawn from (or every later run would miss).
func TestZeroAllocEvalMod(t *testing.T) {
	fx := newBootFixture(t, 7, 1)
	half, _ := fx.boot.CoeffToSlot(fx.boot.ModRaise(fx.ct))
	half.Scale *= float64(fx.params.Q[0]) / fx.params.Scale
	out := NewCiphertext(fx.params, stcLevel)
	run := func() {
		if err := fx.boot.sine.evalInto(fx.boot.ev, out, half); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: free lists populated, the run record pooled
	before := fx.params.ArenaStats()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("EvalMod plan: %v allocs/op, want 0", allocs)
	}
	after := fx.params.ArenaStats()
	if after.Misses != before.Misses || after.BytesAllocated != before.BytesAllocated {
		t.Errorf("arena grew in steady state: misses %d → %d, bytes %d → %d", before.Misses, after.Misses, before.BytesAllocated, after.BytesAllocated)
	}
	if after.BytesInUse != before.BytesInUse {
		t.Errorf("arena leak: BytesInUse %d → %d", before.BytesInUse, after.BytesInUse)
	}
	if after.Gets == before.Gets {
		t.Error("plan slots did not come from the arena")
	}
}

// TestBootstrapWorkersBitIdentical: one input refreshed at 1, 2 and 4
// workers — a plain loop, two serial streams, two streams sharing spare
// tokens — comes out bit for bit the same, the input is left untouched, and
// a returned ciphertext is unchanged by the calls that follow it (nothing
// handed to the caller is arena storage). Poison mode makes any use of a
// slot after its Put, or Put of a slot still in use, loud.
func TestBootstrapWorkersBitIdentical(t *testing.T) {
	fx := newBootFixture(t, 7, 0)
	fx.params.Arena().SetPoison(true)
	in := fx.ct.CopyNew()
	var first, firstCopy *Ciphertext
	for _, w := range []int{1, 2, 4} {
		fx.boot.SetWorkers(w)
		out, err := fx.boot.Bootstrap(fx.ct)
		if err != nil {
			t.Fatal(err)
		}
		if out.Level != stcLevel-1 || out.Scale != fx.params.Scale {
			t.Errorf("workers=%d: refreshed at level %d scale %v, want level %d scale Δ", w, out.Level, out.Scale, stcLevel-1)
		}
		if first == nil {
			first, firstCopy = out, out.CopyNew()
		}
		requireCtEqual(t, out, firstCopy, "refreshed ciphertext across worker counts")
		requireCtEqual(t, first, firstCopy, "an earlier refreshed ciphertext after later Bootstrap calls")
		requireCtEqual(t, fx.ct, in, "Bootstrap input")
	}
}

// TestBootstrapOpCounts pins the op mix of one Bootstrap at the B9 shape —
// the counts ISSUE 19 named before the change — and the level schedule read
// off the plan.
func TestBootstrapOpCounts(t *testing.T) {
	fx := newBootFixture(t, 9, 0)
	boot := fx.boot
	obs := &eventLog{}
	boot.Evaluator().SetObserver(obs)
	out, err := boot.Bootstrap(fx.ct)
	if err != nil {
		t.Fatal(err)
	}
	counts := obs.counts()
	for op, n := range map[string]int{"CMult": 54, "HAdd": 29, "HAddPlain": 14, "Rotation": 1, "Rescale": 86, "PMult": 260, "LinTrans": 16} {
		if counts[op] != n {
			t.Errorf("%s: %d per Bootstrap, want %d (all: %v)", op, counts[op], n, counts)
		}
	}
	if boot.MinLevelBudget() != 11 || boot.raise != 13 || boot.ModRaise(fx.ct).Level != 13 || out.Level != 2 {
		t.Errorf("level schedule: budget %d, raise %d, refreshed %d; want 11, 13, 2", boot.MinLevelBudget(), boot.raise, out.Level)
	}
}

// TestNewBootstrapperShortChain: a chain that cannot hold the plan is
// refused at construction, naming what is needed and what there is; one limb
// more and it is built.
func TestNewBootstrapperShortChain(t *testing.T) {
	build := func(limbs int) error {
		lit := ParametersLiteral{LogN: 5, LogQ: []int{55}, LogP: []int{52, 52, 52, 52, 52}, LogScale: 45}
		for len(lit.LogQ) < limbs {
			lit.LogQ = append(lit.LogQ, 45)
		}
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		kgen := NewKeyGenerator(params, 1)
		_, err = NewBootstrapper(params, NewEncoder(params), kgen, kgen.GenSecretKey(), BootstrapConfig{K: 28})
		return err
	}
	if err := build(13); err == nil || !strings.Contains(err.Error(), "needs 13 levels, has 12") {
		t.Errorf("13-limb chain: error %v, want one naming 13 needed vs 12 available", err)
	}
	if err := build(14); err != nil {
		t.Errorf("14-limb chain: %v", err)
	}
}

// TestBootstrapGuardedMatches: with integrity guards, the spot-check and a
// recovery policy on the bootstrapper's evaluator — every plan op sealed,
// re-verified and staged through recovery scratch, the new scalar ops
// included — the refreshed ciphertext is the unguarded one, bit for bit,
// and every slot comes back. Both linear-transform outputs inside it are
// sealed: a sticky flip on the first read of either — by the Rescale that
// follows it — fails the Bootstrap with ErrIntegrity, returned, not panicked.
func TestBootstrapGuardedMatches(t *testing.T) {
	fx := newBootFixture(t, 7, 0)
	want, err := fx.boot.Bootstrap(fx.ct)
	if err != nil {
		t.Fatal(err)
	}
	ev := fx.boot.Evaluator()
	ev.EnableGuards(3)
	ev.EnableSpotCheck()
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 3})
	log := &eventLog{}
	ev.SetObserver(log)
	got, err := fx.boot.Bootstrap(fx.ct)
	if err != nil {
		t.Fatal(err)
	}
	requireCtEqual(t, got, want, "guarded Bootstrap")
	if got.seal == nil {
		t.Error("guarded Bootstrap output is not sealed")
	}
	if len(log.all()) == 0 {
		t.Error("no op was reported")
	}
	if f := log.failed(); len(f) != 0 {
		t.Errorf("guarded Bootstrap reported failures: %+v", f)
	}
	if inUse := fx.params.ArenaStats().BytesInUse; inUse != 0 {
		t.Errorf("arena holds %d bytes after a guarded Bootstrap", inUse)
	}

	// The HBM read-back count when each transform has finished is the visit
	// of the first read of its output.
	in := fault.NewInjector(17)
	fx.params.RingQ.SetFaultInjector(in)
	defer fx.params.RingQ.SetFaultInjector(nil)
	var marks []uint64
	ev.SetObserver(sinkFunc(func(e trace.OpEvent) {
		if e.Op == "LinTrans" && e.Phase == "finish" {
			marks = append(marks, in.Stats().VisitsAt(fault.SiteHBM))
		}
	}))
	if _, err := fx.boot.Bootstrap(fx.ct); err != nil || len(marks) != 2 {
		t.Fatalf("marking run: %v, %d transforms finished, want 2", err, len(marks))
	}
	for k, visit := range marks {
		in.ResetVisits()
		in.ArmAtMode(fault.SiteHBM, fault.BitFlip, visit, fault.Sticky, 0)
		var oe *OpError
		if _, err := fx.boot.Bootstrap(fx.ct); !errors.As(err, &oe) || oe.Op != "Rescale" || !errors.Is(err, ErrIntegrity) {
			t.Errorf("transform %d: a flip in its output gave %v, want the Rescale reading it to fail with ErrIntegrity", k, err)
		}
	}
}

// sinkFunc is a trace.OpSink that calls itself, as safe for concurrent
// events as the function is.
type sinkFunc func(trace.OpEvent)

func (f sinkFunc) ObserveOp(e trace.OpEvent) { f(e) }
