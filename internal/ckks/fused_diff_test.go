package ckks

import (
	"fmt"
	"testing"
)

// Differential suite for the fused radix-2^k NTT kernels: every evaluator
// operation must be BIT-IDENTICAL between the strict reference, the default
// dispatch (fused k=3) and the fused kernel at every other degree checked
// here. The modes run on ONE Parameters instance whose two rings are toggled
// via ring.Ring.SetFusionDegree — the only place a degree can be set, and
// nothing but these tests sets one — so keys, encryption randomness, and
// inputs are literally the same objects: any coefficient difference is a
// kernel bug, not setup noise. What ties each degree to the plain radix-2
// transform is pinned where the kernels live: internal/ntt's
// TestFusedMatchesPlain / TestInverseFusedMatchesPlain (k ∈ [1, 6] against
// Table.Forward / Inverse) and TestFusedMatchesStrictEveryLogN (against the
// strict transform, every logN ≤ 14).

// fusedDiffDegrees are the fusion degrees checked against the default
// dispatch (the fused k=3 kernels). k=1 runs one butterfly stage per pass —
// the radix-2 schedule; k=4 exercises the generic (non-specialized) kernel
// path.
var fusedDiffDegrees = []int{1, 2, 3, 4}

// setFusionDegree selects degree k (0: the default) on both rings.
func setFusionDegree(params *Parameters, k int) error {
	if err := params.RingQ.SetFusionDegree(k); err != nil {
		return err
	}
	return params.RingP.SetFusionDegree(k)
}

// withFusionCkks runs f under fusion degree k and restores the default.
func withFusionCkks(t testing.TB, params *Parameters, k int, f func()) {
	t.Helper()
	if err := setFusionDegree(params, k); err != nil {
		t.Fatalf("SetFusionDegree(%d): %v", k, err)
	}
	defer func() {
		if err := setFusionDegree(params, 0); err != nil {
			t.Fatalf("SetFusionDegree(0): %v", err)
		}
	}()
	f()
}

// TestFusedDiffEvaluatorOps is the differential table: every op × both
// parameter sets × k ∈ {1,2,3,4}, bit-compared against the default-dispatch
// output — which is itself pinned to the strict reference first, so every
// degree is transitively proven against the fully reduced kernels.
func TestFusedDiffEvaluatorOps(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(31)
		for _, op := range diffOps {
			want := op.run(dc.serial, ct1, ct2, pt, dc)
			var strict *Ciphertext
			withStrictCkks(params, true, func() {
				strict = op.run(dc.serial, ct1, ct2, pt, dc)
			})
			requireCtEqual(t, want, strict, op.name+" default vs strict baseline")
			for _, k := range fusedDiffDegrees {
				t.Run(fmt.Sprintf("%s/%s/k=%d", pname, op.name, k), func(t *testing.T) {
					var got *Ciphertext
					withFusionCkks(t, params, k, func() {
						got = op.run(dc.serial, ct1, ct2, pt, dc)
					})
					requireCtEqual(t, got, want, op.name)
				})
			}
		}
	}
}

// TestFusedDiffStrictPrecedence pins the dispatch priority: while strict
// kernels are selected, the fusion degree must not change the execution
// (strict wins), and the degree must survive the round trip.
func TestFusedDiffStrictPrecedence(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	dc := newDiffContext(t, params)
	ct1, ct2, pt := dc.freshInputs(37)

	var want *Ciphertext
	withStrictCkks(params, true, func() {
		want = dc.serial.MulRelin(ct1, ct2)
	})
	var got *Ciphertext
	withStrictCkks(params, true, func() {
		withFusionCkks(t, params, 2, func() {
			if params.RingQ.FusionDegree() != 2 {
				t.Fatal("FusionDegree not reported while strict")
			}
			got = dc.serial.MulRelin(ct1, ct2)
		})
	})
	requireCtEqual(t, got, want, "strict+fused MulRelin")
	_ = pt
}

// TestFusedDiffIntoDirtyAndAliased runs the destination-passing forms under
// fusion: a dirty max-level destination (garbage residues, wrong
// bookkeeping) and an in-place aliased destination (out == a's copy) must
// both reproduce the default-dispatch allocating output bit-for-bit.
func TestFusedDiffIntoDirtyAndAliased(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(41)
		for _, op := range intoOps {
			want := op.alloc(dc.serial, ct1, ct2, pt, dc)
			for _, k := range fusedDiffDegrees {
				t.Run(fmt.Sprintf("%s/%s/k=%d/dirty", pname, op.name, k), func(t *testing.T) {
					withFusionCkks(t, params, k, func() {
						out := dirtyDest(params, int64(1000+k))
						got := op.into(dc.serial, out, ct1, ct2, pt, dc)
						requireCtEqual(t, got, want, op.name+" into dirty dest")
					})
				})
				if op.name == "MulRelin" {
					continue // out aliasing an operand is the one forbidden mode
				}
				t.Run(fmt.Sprintf("%s/%s/k=%d/aliased", pname, op.name, k), func(t *testing.T) {
					withFusionCkks(t, params, k, func() {
						alias := ct1.CopyNew()
						got := op.into(dc.serial, alias, alias, ct2, pt, dc)
						requireCtEqual(t, got, want, op.name+" into aliased dest")
					})
				})
			}
		}
	}
}

// TestFusedDecryptIdentity is the end-to-end acceptance check: a multi-op
// chain evaluated under every fusion degree must decrypt to the exact same
// slot values as the default chain (the ciphertexts are bit-identical, so
// the decoded complex values must match exactly, not just approximately).
func TestFusedDecryptIdentity(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(43)
		decr := NewDecryptor(params, dc.sk)

		chain := func(ev *Evaluator) *Ciphertext {
			x := ev.Rescale(ev.MulRelin(ct1, ct2))
			x = ev.Add(x, ev.Rotate(x, 1))
			_ = pt
			return ev.Rescale(ev.MulConst(x, complex(0.5, -0.5)))
		}

		wantCt := chain(dc.serial)
		want := dc.enc.Decode(decr.Decrypt(wantCt))
		for _, k := range fusedDiffDegrees {
			t.Run(fmt.Sprintf("%s/k=%d", pname, k), func(t *testing.T) {
				withFusionCkks(t, params, k, func() {
					gotCt := chain(dc.serial)
					requireCtEqual(t, gotCt, wantCt, "fused chain ciphertext")
					got := dc.enc.Decode(decr.Decrypt(gotCt))
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("slot %d: fused decrypt %v != plain %v", i, got[i], want[i])
						}
					}
				})
			})
		}
	}
}

// TestFusionDegreeLiteralFlag: neither the literal nor Parameters carries a
// degree — a fresh instance runs the fused radix-8 default on both rings —
// and the rings' own setter validates its range, with 0 meaning that
// default, reported as the degree actually running, never 0.
func TestFusionDegreeLiteralFlag(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	rq, rp := params.RingQ, params.RingP
	if rq.FusionDegree() != 3 || rp.FusionDegree() != 3 {
		t.Fatalf("a fresh instance runs degree %d/%d, want the fused radix-8 default",
			rq.FusionDegree(), rp.FusionDegree())
	}
	if err := setFusionDegree(params, 1); err != nil {
		t.Fatal(err)
	}
	if rq.FusionDegree() != 1 || rp.FusionDegree() != 1 {
		t.Fatal("SetFusionDegree(1) not applied to both rings")
	}
	if err := setFusionDegree(params, 0); err != nil {
		t.Fatal(err)
	}
	if rq.FusionDegree() != 3 || rp.FusionDegree() != 3 {
		t.Fatal("SetFusionDegree(0) did not restore the default degree")
	}
	if err := rq.SetFusionDegree(7); err == nil {
		t.Fatal("SetFusionDegree(7) should error")
	}
	if err := rq.SetFusionDegree(-1); err == nil {
		t.Fatal("SetFusionDegree(-1) should error")
	}
}
