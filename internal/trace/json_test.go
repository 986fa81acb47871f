package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	tr := &Trace{Name: "demo", Description: "round trip"}
	tr.AddTagged(HAdd, 10, 3, "phase1")
	tr.Add(CMult, 8, 2.5)
	tr.Add(Rotation, 6, 1)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Description != tr.Description {
		t.Error("metadata lost")
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("ops %d want %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if back.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: %+v != %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
}

func TestReadJSONValidation(t *testing.T) {
	cases := map[string]string{
		"bad kind":       `{"name":"x","ops":[{"kind":"Nope","limbs":1,"count":1}]}`,
		"zero limbs":     `{"name":"x","ops":[{"kind":"HAdd","limbs":0,"count":1}]}`,
		"zero count":     `{"name":"x","ops":[{"kind":"HAdd","limbs":1,"count":0}]}`,
		"negative count": `{"name":"x","ops":[{"kind":"HAdd","limbs":1,"count":-2}]}`,
		"missing name":   `{"ops":[]}`,
		"not json":       `{{{`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadJSONEmptyOps(t *testing.T) {
	tr, err := ReadJSON(strings.NewReader(`{"name":"empty","ops":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalOps() != 0 {
		t.Error("empty trace should have zero ops")
	}
}

// legacyRoundTrip loads a trace file written while traces still carried a
// memory or guard profile under key, checks the ops survive, and writes it
// back: the profile is dropped and the rewritten file loads to the same ops.
func legacyRoundTrip(t *testing.T, key, block string) {
	t.Helper()
	in := `{"name":"legacy","` + key + `":` + block + `,
		"ops":[{"kind":"CMult","limbs":4,"count":1}]}`
	want := Op{Kind: CMult, Limbs: 4, Count: 1}
	tr, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatalf("legacy %q trace rejected: %v", key, err)
	}
	if tr.Name != "legacy" || len(tr.Ops) != 1 || tr.Ops[0] != want {
		t.Fatalf("legacy %q trace = %+v", key, tr)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"`+key+`"`) {
		t.Errorf("rewritten trace still carries %q:\n%s", key, buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || len(back.Ops) != 1 || back.Ops[0] != want {
		t.Fatalf("rewritten trace = %+v", back)
	}
}

func TestJSONMemRoundTrip(t *testing.T) {
	legacyRoundTrip(t, "mem",
		`{"allocs_per_op":2.5,"bytes_per_op":4096,"arena_bytes":1048576,"peak_arena_bytes":524288}`)
}

func TestJSONFaultRoundTrip(t *testing.T) {
	legacyRoundTrip(t, "fault",
		`{"seals":1200,"verifies":2400,"spot_checks":300,"integrity_faults":7,"noise_flags":2}`)
}
