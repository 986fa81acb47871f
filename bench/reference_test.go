package main

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"time"
)

func vecNear(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: slot %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// The cleartext programs themselves, against arithmetic written out by hand.
func TestCleartextReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := unitCircle(rng, 16, 1)

	want := make([]complex128, len(z))
	for i, v := range z {
		want[i] = cmplx.Pow(v, 32)
	}
	vecNear(t, "chainReference depth 5", chainReference(z, 5), want)

	// linTransReference against a dense row-major product of the same
	// banded matrix.
	n, nd := 16, 4
	diags := make([][]complex128, nd)
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
	}
	for d := range diags {
		diags[d] = unitCircle(rng, n, 0.25)
		for r := 0; r < n; r++ {
			m[r][(r+d)%n] = diags[d][r]
		}
	}
	for r := 0; r < n; r++ {
		want[r] = 0
		for c := 0; c < n; c++ {
			want[r] += m[r][c] * z[c]
		}
	}
	vecNear(t, "linTransReference", linTransReference(diags, z), want)

	vecNear(t, "bootstrapReference", bootstrapReference(z), z)

	rot := rotateReference(z, 3)
	for i := range z {
		if rot[i] != z[(i+3)%len(z)] {
			t.Fatalf("rotateReference: slot %d", i)
		}
	}

	// One round of serve_chain's program is y ← 2·rot₁(y²); radius ½ is its
	// fixed point, which is why the tenants' messages have that modulus.
	y := unitCircle(rng, 16, 0.5)
	cur := y
	for pos := 0; pos < chainStepsPerRound; pos++ {
		cur = chainStepReference(cur, pos)
	}
	for i := range y {
		next := y[(i+1)%len(y)]
		if cmplx.Abs(cur[i]-2*next*next) > 1e-12 {
			t.Fatalf("chain round: slot %d = %v", i, cur[i])
		}
		if d := cmplx.Abs(cur[i]) - 0.5; d > 1e-12 || d < -1e-12 {
			t.Fatalf("chain round left the radius-½ circle: |%v|", cur[i])
		}
	}
}

// Every workload's program on a tiny ring: what it computes under encryption
// must decrypt to what its cleartext reference computes, untraced and traced.
func TestWorkloadsMatchTheirReferencesOnTinyRings(t *testing.T) {
	minBits := map[string]float64{"bootstrap_deep": 12}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			inst, err := def.setup(env{seed: 7, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			for _, tr := range []*tracer{nil, newTracer(1 << 12)} {
				r := inst.runSegment(20*time.Millisecond, tr)
				v := inst.validate()
				if r.failed != 0 || len(r.latMs) == 0 {
					t.Fatalf("traced=%v: %d ops completed, %d failed", tr != nil, len(r.latMs), r.failed)
				}
				if v.checked == 0 || v.bad != 0 {
					t.Fatalf("traced=%v: %d outputs validated, %d wrong", tr != nil, v.checked, v.bad)
				}
				want := minBits[def.Name]
				if want == 0 {
					want = minPrecisionBits
				}
				if bits := precisionBits(v.maxErr); bits < want {
					t.Errorf("traced=%v: %.1f bits of precision, want at least %.0f", tr != nil, bits, want)
				}
				if tr != nil && buildLedger(tr.recorded(), def.Name).Count == 0 {
					t.Errorf("the traced segment recorded no %s span", def.Name)
				}
			}
		})
	}
}

// A wrong output must be counted, not averaged away.
func TestValidationCountsWrongOutputs(t *testing.T) {
	var v validation
	want := []complex128{1, 1i}
	v.check([]complex128{1, 1i}, want)
	v.check([]complex128{1, 1i + 0.5}, want) // 1 bit: below the floor
	if v.checked != 2 || v.bad != 1 || v.maxErr != 0.5 {
		t.Errorf("validation = %+v", v)
	}
}
