package ckks

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/ring"
)

// Differential suite for the op surfaces: every surface of an op — X, XInto,
// TryX, TryXInto, whichever of them it has — must be BIT-IDENTICAL to the
// others, including when the destination is a dirty, previously used
// container created at a higher level (exercising the reshape path), when the
// destination aliases the input, and under both kernel schedules. All of
// them are one-line calls of exec, so the comparison pins the wrapper
// contract: a destination's prior contents, scale, level, and domain flags
// must be fully overwritten, and nothing but how the outcome is delivered
// may depend on the surface.

// dirtyDest builds a max-level destination full of garbage residues with
// deliberately wrong bookkeeping, so any state leaking through an Into
// method shows up as a bit difference.
func dirtyDest(params *Parameters, seed int64) *Ciphertext {
	out := NewCiphertext(params, params.MaxLevel())
	rng := rand.New(rand.NewSource(seed))
	for _, p := range []*ring.Poly{out.C0, out.C1} {
		for i := range p.Coeffs {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = rng.Uint64() % params.Q[i]
			}
		}
		p.IsNTT = true
	}
	out.Scale = 12345.678
	return out
}

// intoOps lists every surface of every basic op next to its descriptor: the
// one table the differential suites and the sentinel table in guard_test.go
// walk. try is nil for the ops that have no allocating Try form. Rows read
// the operands their op takes (the switching key rides in dc) and ignore the
// rest.
var intoOps = []struct {
	name    string
	d       *opDesc
	alloc   func(ev *Evaluator, a, b *Ciphertext, pt *Plaintext, dc *diffContext) *Ciphertext
	into    func(ev *Evaluator, out *Ciphertext, a, b *Ciphertext, pt *Plaintext, dc *diffContext) *Ciphertext
	try     func(ev *Evaluator, a, b *Ciphertext, pt *Plaintext, dc *diffContext) (*Ciphertext, error)
	tryInto func(ev *Evaluator, out *Ciphertext, a, b *Ciphertext, pt *Plaintext, dc *diffContext) (*Ciphertext, error)
}{
	{"Add", &opAdd,
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext { return ev.Add(a, b) },
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.AddInto(out, a, b)
		},
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryAdd(a, b)
		},
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryAddInto(out, a, b)
		}},
	{"Sub", &opSub,
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext { return ev.Sub(a, b) },
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.SubInto(out, a, b)
		},
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TrySub(a, b)
		},
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TrySubInto(out, a, b)
		}},
	{"Neg", &opNeg,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext { return ev.Neg(a) },
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.NegInto(out, a)
		},
		nil,
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryNegInto(out, a)
		}},
	{"AddPlain", &opAddPlain,
		func(ev *Evaluator, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
			return ev.AddPlain(a, pt)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
			return ev.AddPlainInto(out, a, pt)
		},
		nil,
		func(ev *Evaluator, out, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryAddPlainInto(out, a, pt)
		}},
	{"MulPlain", &opMulPlain,
		func(ev *Evaluator, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
			return ev.MulPlain(a, pt)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) *Ciphertext {
			return ev.MulPlainInto(out, a, pt)
		},
		nil,
		func(ev *Evaluator, out, a, _ *Ciphertext, pt *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryMulPlainInto(out, a, pt)
		}},
	{"MulRelin", &opMulRelin,
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.MulRelin(a, b)
		},
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.MulRelinInto(out, a, b)
		},
		func(ev *Evaluator, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryMulRelin(a, b)
		},
		func(ev *Evaluator, out, a, b *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryMulRelinInto(out, a, b)
		}},
	{"Rescale", &opRescale,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext { return ev.Rescale(a) },
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.RescaleInto(out, a)
		},
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRescale(a)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRescaleInto(out, a)
		}},
	{"Rotate+1", &opGalois,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.Rotate(a, 1)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.RotateInto(out, a, 1)
		},
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRotate(a, 1)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRotateInto(out, a, 1)
		}},
	{"Rotate0", &opGalois,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.Rotate(a, 0)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.RotateInto(out, a, 0)
		},
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRotate(a, 0)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryRotateInto(out, a, 0)
		}},
	{"Conjugate", &opGalois,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.Conjugate(a)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) *Ciphertext {
			return ev.ConjugateInto(out, a)
		},
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryConjugate(a)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, _ *diffContext) (*Ciphertext, error) {
			return ev.TryConjugateInto(out, a)
		}},
	{"KeySwitch", &opKeySwitch,
		func(ev *Evaluator, a, _ *Ciphertext, _ *Plaintext, dc *diffContext) *Ciphertext {
			return ev.KeySwitch(a, dc.swk)
		},
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, dc *diffContext) *Ciphertext {
			return ev.KeySwitchInto(out, a, dc.swk)
		},
		nil,
		func(ev *Evaluator, out, a, _ *Ciphertext, _ *Plaintext, dc *diffContext) (*Ciphertext, error) {
			return ev.TryKeySwitchInto(out, a, dc.swk)
		}},
}

// requireSurfacesMatch runs every surface of one intoOps row on ev, the
// destination-passing ones into the shared dirty container out, and
// bit-compares each result against want.
func requireSurfacesMatch(t *testing.T, ev *Evaluator, row int, out, a, b *Ciphertext, pt *Plaintext, dc *diffContext, want *Ciphertext) {
	t.Helper()
	op := intoOps[row]
	requireCtEqual(t, op.alloc(ev, a, b, pt, dc), want, op.name)
	got := op.into(ev, out, a, b, pt, dc)
	requireCtEqual(t, got, want, op.name+"Into")
	if got != out {
		t.Fatalf("%s: Into did not return its destination", op.name)
	}
	if op.try != nil {
		got, err := op.try(ev, a, b, pt, dc)
		if err != nil {
			t.Fatalf("Try%s: %v", op.name, err)
		}
		requireCtEqual(t, got, want, "Try"+op.name)
	}
	got, err := op.tryInto(ev, out, a, b, pt, dc)
	if err != nil {
		t.Fatalf("Try%sInto: %v", op.name, err)
	}
	requireCtEqual(t, got, want, "Try"+op.name+"Into")
	if got != out {
		t.Fatalf("Try%sInto did not return its destination", op.name)
	}
}

// TestIntoMatchesAllocating reuses ONE dirty destination across every op in
// sequence — the steady-state pattern the API exists for — and bit-compares
// every surface's result against the allocating form, on both parameter
// sets. The strict=true pass also holds the allocating form to the strict
// kernels' output (strictDigests) and the last surface's limbs to the strict
// transforms.
func TestIntoMatchesAllocating(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(41)
		for _, strict := range []bool{false, true} {
			out := dirtyDest(params, 7)
			for row, op := range intoOps {
				t.Run(fmt.Sprintf("%s/%s/strict=%v", pname, op.name, strict), func(t *testing.T) {
					want := op.alloc(dc.serial, ct1, ct2, pt, dc)
					if strict {
						requireStrictDigest(t, want, "into/"+pname+"/"+op.name)
					}
					requireSurfacesMatch(t, dc.serial, row, out, ct1, ct2, pt, dc, want)
					if strict {
						requireRingMatchesStrict(t, params, out, op.name)
					}
				})
			}
		}
	}
}

// TestIntoMatchesAllocatingParallel repeats the destination-reuse sweep on
// parallel evaluators (2 and 3 workers) against the serial reference:
// fan-out must not change what any surface produces.
func TestIntoMatchesAllocatingParallel(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	dc := newDiffContext(t, params)
	ct1, ct2, pt := dc.freshInputs(43)
	out := dirtyDest(params, 11)
	for row, op := range intoOps {
		t.Run(op.name, func(t *testing.T) {
			want := op.alloc(dc.serial, ct1, ct2, pt, dc)
			for _, workers := range []int{2, 3} {
				requireSurfacesMatch(t, dc.serial.WithWorkers(workers), row, out, ct1, ct2, pt, dc, want)
			}
		})
	}
}

// TestIntoInPlace checks the documented aliasing contract: out == input is
// legal for everything except MulRelinInto, and gives the bits of the
// non-aliased call. The keyswitch-bearing ops read the operand's own rows
// deep into the pipeline (c1's as the digit-own limbs of the inner product,
// c0's in the close), so they also run on two workers, where a stage that
// wrote the destination too early would race the ones still reading it.
func TestIntoInPlace(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(47)
		cases := []struct {
			name string
			want func(ev *Evaluator) *Ciphertext
			run  func(ev *Evaluator, x *Ciphertext) *Ciphertext // x is a private copy of ct1
		}{
			{"AddInto", func(ev *Evaluator) *Ciphertext { return ev.Add(ct1, ct2) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.AddInto(x, x, ct2) }},
			{"SubInto", func(ev *Evaluator) *Ciphertext { return ev.Sub(ct1, ct2) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.SubInto(x, x, ct2) }},
			{"NegInto", func(ev *Evaluator) *Ciphertext { return ev.Neg(ct1) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.NegInto(x, x) }},
			{"AddPlainInto", func(ev *Evaluator) *Ciphertext { return ev.AddPlain(ct1, pt) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.AddPlainInto(x, x, pt) }},
			{"MulPlainInto", func(ev *Evaluator) *Ciphertext { return ev.MulPlain(ct1, pt) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.MulPlainInto(x, x, pt) }},
			{"RescaleInto", func(ev *Evaluator) *Ciphertext { return ev.Rescale(ev.MulPlain(ct1, pt)) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext {
					ev.MulPlainInto(x, x, pt)
					return ev.RescaleInto(x, x)
				}},
			{"RotateInto", func(ev *Evaluator) *Ciphertext { return ev.Rotate(ct1, 1) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.RotateInto(x, x, 1) }},
			{"ConjugateInto", func(ev *Evaluator) *Ciphertext { return ev.Conjugate(ct1) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.ConjugateInto(x, x) }},
			{"KeySwitchInto", func(ev *Evaluator) *Ciphertext { return ev.KeySwitch(ct1, dc.swk) },
				func(ev *Evaluator, x *Ciphertext) *Ciphertext { return ev.KeySwitchInto(x, x, dc.swk) }},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", pname, c.name), func(t *testing.T) {
				want := c.want(dc.serial)
				for _, workers := range []int{1, 2} {
					got := c.run(dc.serial.WithWorkers(workers), ct1.CopyNew())
					requireCtEqual(t, got, want, fmt.Sprintf("%s in place, %d workers", c.name, workers))
				}
			})
		}
	}
}

// TestMulRelinIntoAliasPanics pins the one forbidden aliasing mode.
func TestMulRelinIntoAliasPanics(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	dc := newDiffContext(t, params)
	ct1, ct2, _ := dc.freshInputs(53)
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrAliasedDestination) {
			t.Fatalf("MulRelinInto with out aliasing an operand panicked with %v, want ErrAliasedDestination", err)
		}
	}()
	x := ct1.CopyNew()
	dc.serial.MulRelinInto(x, x, ct2)
}

// TestIntoDestinationReuseAcrossLevels drives one destination down the
// modulus chain and back up: reshape must preserve the backing rows, so a
// container created once serves the whole computation.
func TestIntoDestinationReuseAcrossLevels(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	dc := newDiffContext(t, params)
	ct1, ct2, pt := dc.freshInputs(59)

	out := dirtyDest(params, 13)
	// Down: multiply and rescale twice.
	dc.serial.MulPlainInto(out, ct1, pt)
	dc.serial.RescaleInto(out, out)
	want1 := dc.serial.Rescale(dc.serial.MulPlain(ct1, pt))
	requireCtEqual(t, out, want1, "first descent")
	dc.serial.MulRelinInto(out, want1, dc.serial.DropLevel(ct2, want1.Level))
	dc.serial.RescaleInto(out, out)
	want2 := dc.serial.Rescale(dc.serial.MulRelin(want1, dc.serial.DropLevel(ct2, want1.Level)))
	requireCtEqual(t, out, want2, "second descent")
	// Back up: the same container must host a top-level result again.
	dc.serial.AddInto(out, ct1, ct2)
	requireCtEqual(t, out, dc.serial.Add(ct1, ct2), "reuse at top level")
}
