package ckks

import (
	"fmt"
	"slices"
	"testing"

	"poseidon/internal/ntt"
	"poseidon/internal/ring"
)

// Differential suite for the fused radix-2^k NTT kernels on evaluator data.
// The rings run one degree, ntt.DefaultFusionDegree; every other degree lives
// on as an ntt.FusedPlan / InverseFusedPlan. Each op's output must be the
// strict kernels' output (strictDigests), and every fused degree checked
// here must transform its limbs to the bits of the strict transform. What
// ties each degree to the strict transform on random data at every logN ≤ 14
// is pinned where the kernels live: internal/ntt's
// TestFusedMatchesStrictEveryLogN.

// fusedDiffDegrees are the fusion degrees checked. k=1 runs one butterfly
// stage per pass — the radix-2 schedule; k=3 is the rings' own degree; k=4
// exercises the generic (non-specialized) kernel path.
var fusedDiffDegrees = []int{1, 2, 3, 4}

// requireDegreeMatchesStrict runs requireStrictLimbs with the fused plans of
// degree k over the ring's tables.
func requireDegreeMatchesStrict(t *testing.T, params *Parameters, ct *Ciphertext, k int, msg string) {
	t.Helper()
	tabs := params.RingQ.Tables
	fwd := func(i int, a []uint64) {
		p, err := ntt.NewFusedPlan(tabs[i], k)
		if err != nil {
			t.Fatal(err)
		}
		p.Forward(a)
	}
	inv := func(i int, a []uint64) {
		p, err := ntt.NewInverseFusedPlan(tabs[i], k)
		if err != nil {
			t.Fatal(err)
		}
		p.Inverse(a)
	}
	requireStrictLimbs(t, params, ct, fwd, inv, fmt.Sprintf("%s k=%d", msg, k))
}

// TestFusedDiffEvaluatorOps is the differential table: every op × both
// parameter sets × k ∈ {1,2,3,4}: the output is the strict kernels' output,
// and the degree-k transforms of its limbs are the strict transforms.
func TestFusedDiffEvaluatorOps(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(17)
		for _, op := range diffOps {
			got := op.run(dc.serial, ct1, ct2, pt, dc)
			for _, k := range fusedDiffDegrees {
				t.Run(fmt.Sprintf("%s/%s/k=%d", pname, op.name, k), func(t *testing.T) {
					requireStrictDigest(t, got, "ops/"+pname+"/"+op.name)
					requireDegreeMatchesStrict(t, params, got, k, op.name)
				})
			}
		}
	}
}

// TestFusedDiffIntoDirtyAndAliased runs the destination-passing forms: a
// dirty max-level destination (garbage residues, wrong bookkeeping, drawn
// per degree) and an in-place aliased destination (out == a's copy) must
// both reproduce the allocating output — itself the strict kernels' output —
// bit for bit, and the degree-k transforms of the result must be the strict
// ones.
func TestFusedDiffIntoDirtyAndAliased(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(41)
		for _, op := range intoOps {
			want := op.alloc(dc.serial, ct1, ct2, pt, dc)
			for _, k := range fusedDiffDegrees {
				t.Run(fmt.Sprintf("%s/%s/k=%d/dirty", pname, op.name, k), func(t *testing.T) {
					requireStrictDigest(t, want, "into/"+pname+"/"+op.name)
					out := dirtyDest(params, int64(1000+k))
					got := op.into(dc.serial, out, ct1, ct2, pt, dc)
					requireCtEqual(t, got, want, op.name+" into dirty dest")
					requireDegreeMatchesStrict(t, params, got, k, op.name+" into dirty dest")
				})
				if op.name == "MulRelin" {
					continue // out aliasing an operand is the one forbidden mode
				}
				t.Run(fmt.Sprintf("%s/%s/k=%d/aliased", pname, op.name, k), func(t *testing.T) {
					alias := ct1.CopyNew()
					got := op.into(dc.serial, alias, alias, ct2, pt, dc)
					requireCtEqual(t, got, want, op.name+" into aliased dest")
					requireDegreeMatchesStrict(t, params, got, k, op.name+" into aliased dest")
				})
			}
		}
	}
}

// TestFusedDecryptIdentity is the end-to-end acceptance check: a multi-op
// chain, the strict kernels' ciphertext, decrypted with the inverse transform
// run at every fusion degree must decode to exactly the slot values of the
// production decryption — the coefficients are bit-identical, so the decoded
// complex values must match exactly, not just approximately.
func TestFusedDecryptIdentity(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, _ := dc.freshInputs(43)
		decr := NewDecryptor(params, dc.sk)

		ev := dc.serial
		x := ev.Rescale(ev.MulRelin(ct1, ct2))
		x = ev.Add(x, ev.Rotate(x, 1))
		ct := ev.Rescale(ev.MulConst(x, complex(0.5, -0.5)))

		want := dc.enc.Decode(decr.Decrypt(ct))
		for _, k := range fusedDiffDegrees {
			t.Run(fmt.Sprintf("%s/k=%d", pname, k), func(t *testing.T) {
				requireStrictDigest(t, ct, "chain/"+pname)
				pt := decr.Decrypt(ct)
				for i, limb := range pt.Value.Coeffs {
					p, err := ntt.NewInverseFusedPlan(params.RingQ.Tables[i], k)
					if err != nil {
						t.Fatal(err)
					}
					p.Inverse(limb)
				}
				pt.Value.IsNTT = false
				got := dc.enc.Decode(pt)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("slot %d: degree-%d decrypt %v != production %v", i, k, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestFusionDegreeLiteralFlag: neither the literal nor Parameters carries a
// degree — a fresh instance runs the fused radix-8 default on both rings,
// reports it, and its limb transforms are that plan's — and the plans
// validate their degree range.
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
	for _, r := range []*ring.Ring{params.RingQ, params.RingP} {
		if r.FusionDegree() != 3 || ntt.DefaultFusionDegree != 3 {
			t.Fatalf("a fresh instance runs degree %d, want the fused radix-8 default", r.FusionDegree())
		}
		for i, tab := range r.Tables {
			a := make([]uint64, r.N)
			for j := range a {
				a[j] = uint64(j*j+7*i+1) % tab.Mod.Q
			}
			got, want := slices.Clone(a), slices.Clone(a)
			r.ForwardLimb(i, got)
			ntt.FusedPlan{Table: tab, K: 3}.Forward(want)
			if !slices.Equal(got, want) {
				t.Fatalf("limb %d: ForwardLimb is not the degree-3 plan", i)
			}
			r.InverseLimb(i, got)
			ntt.InverseFusedPlan{Table: tab, K: 3}.Inverse(want)
			if !slices.Equal(got, want) || !slices.Equal(got, a) {
				t.Fatalf("limb %d: InverseLimb is not the degree-3 plan", i)
			}
		}
	}
	tab := params.RingQ.Tables[0]
	for _, k := range []int{0, 7, -1} {
		if _, err := ntt.NewFusedPlan(tab, k); err == nil {
			t.Fatalf("NewFusedPlan(k=%d) should error", k)
		}
		if _, err := ntt.NewInverseFusedPlan(tab, k); err == nil {
			t.Fatalf("NewInverseFusedPlan(k=%d) should error", k)
		}
	}
}
