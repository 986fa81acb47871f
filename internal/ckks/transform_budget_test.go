package ckks

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"poseidon/internal/fault"
)

// TestTransformBudget pins how many limb transforms each keyswitch-bearing
// op runs — clock-free and exact: a fault injector with nothing armed sits on
// both rings and its SiteNTT / SiteINTT visit counts are the forward and
// inverse limb transforms of the op between two ResetVisits. With
// q = level+1 limbs of Q, α = |P|, e = q+α and d = ⌈q/α⌉ digits:
//
//	MulRelin, KeySwitch, Rotate, Conjugate   NTT d·e − q + 2q   INTT q + 2α
//	Rescale                                  NTT 2(q−1)         INTT 2
//	Hoist                                    NTT d·e − q        INTT q
//	Hoisted.Rotate                           NTT 2q             INTT 2α
//
// d·e − q: every extended digit row but the digit-own ones, whose transform
// is the input's own NTT image; q: the coefficient-domain copy the basis
// extension reads; 2α: the accumulators' P rows, the only ones ModDown reads
// in the coefficient domain; 2q: the two results. A linear transform adds up
// the same pieces (one hoist, a ModDown and full decomposition per giant
// step with a rotation, one close) and must agree with the LinTransStats its
// engine counts by hand. Run with -v for the table DESIGN.md §6 quotes.
func TestTransformBudget(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := params.Slots
	rng := rand.New(rand.NewSource(97))
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	encr := NewEncryptor(params, kgen.GenPublicKey(sk), 29)
	m := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 1, 2, 3, 9, 13, 42}))

	in := fault.NewInjector(1)
	params.RingQ.SetFaultInjector(in)
	params.RingP.SetFaultInjector(in)
	defer params.RingQ.SetFaultInjector(nil)
	defer params.RingP.SetFaultInjector(nil)

	var table strings.Builder
	fmt.Fprintf(&table, "\n| op | level | q | d | forward | inverse | total |\n|---|---|---|---|---|---|---|\n")
	for _, level := range []int{params.MaxLevel(), 2} {
		// Babies {1,2,3,5}, groups j ∈ {0, 8, 40}: two giant steps with a
		// rotation, one without.
		lt, err := NewLinearTransformBSGS(enc, m, level, params.Scale, 8)
		if err != nil {
			t.Fatal(err)
		}
		rtk := kgen.GenRotationKeys(sk, append(lt.Rotations(), 7), true)
		ev := NewEvaluator(params, rlk, rtk)
		ct := encr.Encrypt(enc.Encode(randomComplex(rng, n, 1.0), level, params.Scale))
		ct2 := encr.Encrypt(enc.Encode(randomComplex(rng, n, 1.0), level, params.Scale))
		out := NewCiphertext(params, level)
		h := ev.Hoist(ct)
		var stats LinTransStats

		q, alpha := level+1, params.Alpha()
		e, d := q+alpha, params.Digits(level)
		ks := [2]int{d*e - q + 2*q, q + 2*alpha}
		babies, rotGroups := 4, 2
		for _, op := range []struct {
			name string
			f    func()
			want [2]int // forward, inverse
		}{
			{"MulRelinInto", func() { ev.MulRelinInto(out, ct, ct2) }, ks},
			{"RescaleInto", func() { ev.RescaleInto(NewCiphertext(params, level-1), ct) }, [2]int{2 * (q - 1), 2}},
			{"RotateInto", func() { ev.RotateInto(out, ct, 7) }, ks},
			{"ConjugateInto", func() { ev.ConjugateInto(out, ct) }, ks},
			{"KeySwitchInto", func() { ev.KeySwitchInto(out, ct, &rlk.SwitchingKey) }, ks},
			{"Hoist", func() { ev.Hoist(ct).Release() }, [2]int{d*e - q, q}},
			{"Hoisted.Rotate", func() { h.Rotate(7) }, [2]int{2 * q, 2 * alpha}},
			{"EvaluateLinearTransformInto", func() { _, stats = ev.EvaluateLinearTransformWithStats(ct, lt) },
				[2]int{d*e - q + rotGroups*d*e + 2*q, q + rotGroups*e + 2*alpha}},
			{"EvaluateLinearTransformPerRotation", func() { _, stats = ev.EvaluateLinearTransformPerRotationWithStats(ct, lt) },
				[2]int{d*e - q + babies*2*q + rotGroups*ks[0], q + babies*2*alpha + rotGroups*ks[1]}},
		} {
			stats = LinTransStats{}
			in.ResetVisits()
			op.f()
			v := in.Stats()
			got := [2]int{int(v.VisitsAt(fault.SiteNTT)), int(v.VisitsAt(fault.SiteINTT))}
			if got != op.want {
				t.Errorf("%s at level %d: %d forward + %d inverse limb transforms, want %d + %d",
					op.name, level, got[0], got[1], op.want[0], op.want[1])
			}
			if stats.KeySwitches > 0 && [2]int{stats.NTTLimbs, stats.InverseNTTLimbs} != got {
				t.Errorf("%s at level %d: LinTransStats reports %d + %d limb transforms, %d + %d ran",
					op.name, level, stats.NTTLimbs, stats.InverseNTTLimbs, got[0], got[1])
			}
			fmt.Fprintf(&table, "| %s | %d | %d | %d | %d | %d | %d |\n", op.name, level, q, d, got[0], got[1], got[0]+got[1])
		}
		h.Release()
	}
	t.Log(table.String())
}
