package ckks

import (
	"errors"
	"math/rand"
	"testing"

	"poseidon/internal/automorph"
	"poseidon/internal/ring"
)

// naiveAutomorphism applies X ↦ X^g to a coefficient-domain poly limb by
// limb by the map's definition (automorph.Naive), the reference the
// NTT-domain permutation is checked against.
func naiveAutomorphism(r *ring.Ring, dst, src *ring.Poly, g uint64) {
	for i := range src.Coeffs {
		automorph.Naive(dst.Coeffs[i], src.Coeffs[i], g, r.Moduli[i])
	}
}

// The NTT-domain automorphism permutation — the one key generation and every
// rotation run — must agree with the map's definition for every Galois
// element: each odd g < 2N at N = 64.
func TestAutomorphismNTTMatchesCoeffDomain(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN: 6, LogQ: []int{40, 30, 30}, LogP: []int{40}, LogScale: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	rq := params.RingQ
	rng := rand.New(rand.NewSource(30))

	p := rq.NewPoly(3)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % rq.Moduli[i].Q
		}
	}
	src := p.CopyNew()
	rq.NTT(src)
	for g := uint64(1); g < uint64(2*params.N); g += 2 {
		// Path 1: the definition in the coefficient domain, then NTT.
		want := rq.NewPoly(3)
		naiveAutomorphism(rq, want, p, g)
		rq.NTT(want)

		// Path 2: the evaluation-domain permutation of the NTT image.
		got := rq.NewPoly(3)
		rq.AutomorphismNTT(got, src, g)

		if !got.Equal(want) {
			t.Fatalf("g=%d: NTT-domain automorphism disagrees with the naive map", g)
		}
	}
}

func TestAutomorphismNTTPanics(t *testing.T) {
	tc := newTestContext(t)
	rq := tc.params.RingQ
	p := rq.NewPoly(1)
	func() {
		defer func() { _ = recover() }()
		rq.AutomorphismNTT(rq.NewPoly(1), p, 5) // coeff domain input
		t.Error("coefficient-domain input should panic")
	}()
	p.IsNTT = true
	func() {
		defer func() { _ = recover() }()
		rq.AutomorphismNTT(rq.NewPoly(1), p, 4) // even Galois element
		t.Error("even Galois element should panic")
	}()
}

// rotateHoisted rotates ct by every step through one Hoist: the shared
// decomposition, one Hoisted.Rotate per step, then Release.
func rotateHoisted(ev *Evaluator, ct *Ciphertext, steps []int) map[int]*Ciphertext {
	h := ev.Hoist(ct)
	defer h.Release()
	out := make(map[int]*Ciphertext, len(steps))
	for _, s := range steps {
		out[s] = h.Rotate(s)
	}
	return out
}

// Hoist + Rotate must agree with individual Rotate calls on every step.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{1, 2, 5, -3, 0}
	rtks := tc.kgen.GenRotationKeys(tc.sk, steps, false)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	rng := rand.New(rand.NewSource(31))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	hoisted := rotateHoisted(ev, ct, steps)
	n := tc.params.Slots
	for _, s := range steps {
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[((i+s)%n+n)%n]
		}
		got := tc.decryptVec(hoisted[s])
		assertClose(t, got, want, 1e-4, "hoisted rotation")

		// And against the plain path.
		plain := tc.decryptVec(ev.Rotate(ct, s))
		assertClose(t, got, plain, 1e-4, "hoisted vs plain rotation")
	}
}

func TestRotateHoistedAtLowerLevel(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{4, -4}
	rtks := tc.kgen.GenRotationKeys(tc.sk, steps, false)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	rng := rand.New(rand.NewSource(32))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := ev.DropLevel(tc.encryptVec(z), 1)

	hoisted := rotateHoisted(ev, ct, steps)
	n := tc.params.Slots
	for _, s := range steps {
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[((i+s)%n+n)%n]
		}
		assertClose(t, tc.decryptVec(hoisted[s]), want, 1e-4, "hoisted rotation at level 1")
	}
}

func TestRotateHoistedMissingKeyPanics(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1}, false)
	ev := NewEvaluator(tc.params, nil, rtks)
	ct := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale)
	defer func() {
		if recover() == nil {
			t.Fatal("missing key should panic")
		}
	}()
	rotateHoisted(ev, ct, []int{7})
}

// The incremental Hoisted handle must agree with the plain rotation path
// and with rotateHoisted, one step at a time.
func TestHoistedHandleMatchesRotate(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{1, 3, -2, 0}
	rtks := tc.kgen.GenRotationKeys(tc.sk, steps, false)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	rng := rand.New(rand.NewSource(33))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	h := ev.Hoist(ct)
	defer h.Release()
	if h.Level() != ct.Level {
		t.Fatalf("Level() = %d, want %d", h.Level(), ct.Level)
	}
	n := tc.params.Slots
	for _, s := range steps {
		got := tc.decryptVec(h.Rotate(s))
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[((i+s)%n+n)%n]
		}
		assertClose(t, got, want, 1e-4, "hoisted handle rotation")
	}
}

// TestHoistedLevelAfterRelease: Release is safe to repeat and leaves the
// handle held, so Level keeps answering the decomposition's level after it
// (it read the released decomposition and panicked).
func TestHoistedLevelAfterRelease(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, tc.kgen.GenRotationKeys(tc.sk, []int{1}, false))
	ct := ev.DropLevel(tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale), 2)
	h := ev.Hoist(ct)
	h.Release()
	if got := h.Level(); got != 2 {
		t.Fatalf("Level() after Release = %d, want 2", got)
	}
	h.Release()
	if got := h.Level(); got != 2 {
		t.Fatalf("Level() after a second Release = %d, want 2", got)
	}
}

// TryHoist/TryRotate carry the Try* error contract: missing keys are
// ErrKeyMissing, a nil or coefficient-domain operand and a released handle
// are ErrInvalidInput, and valid inputs
// round-trip. Releasing twice is safe, and releasing must return every
// borrowed buffer to the arena and free lists.
func TestHoistedHandleTryAndRelease(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{1}, false)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	rng := rand.New(rand.NewSource(34))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	if _, err := ev.TryHoist(nil); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("TryHoist(nil) = %v, want ErrInvalidInput", err)
	}
	if _, err := ev.TryHoist(coeffDomain(tc.params, ct)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("TryHoist(coefficient domain) = %v, want ErrInvalidInput", err)
	}
	evNoKeys := NewEvaluator(tc.params, tc.rlk, nil)
	if _, err := evNoKeys.TryHoist(ct); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("TryHoist without keys = %v, want ErrKeyMissing", err)
	}

	base := tc.params.ArenaStats().BytesInUse

	h, err := ev.TryHoist(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryRotate(7); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("TryRotate missing key = %v, want ErrKeyMissing", err)
	}
	out, err := h.TryRotate(1)
	if err != nil {
		t.Fatal(err)
	}
	n := tc.params.Slots
	want := make([]complex128, n)
	for i := range want {
		want[i] = z[(i+1)%n]
	}
	assertClose(t, tc.decryptVec(out), want, 1e-4, "TryRotate")

	h.Release()
	h.Release() // idempotent
	if _, err := h.TryRotate(1); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("TryRotate after Release = %v, want ErrInvalidInput", err)
	}
	if inUse := tc.params.ArenaStats().BytesInUse; inUse != base {
		t.Fatalf("arena bytes in use %d != baseline %d after Release", inUse, base)
	}
}
