package trace

import "testing"

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		HAdd: "HAdd", PMult: "PMult", CMult: "CMult", Rescale: "Rescale",
		Keyswitch: "Keyswitch", Rotation: "Rotation", Automorphism: "Automorphism",
		NTTTransform: "NTT", ModUp: "ModUp", ModDown: "ModDown", HAddPlain: "HAddPlain",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d: %q want %q", int(k), k.String(), s)
		}
	}
	if len(Kinds()) != int(numKinds) {
		t.Errorf("Kinds() returned %d entries", len(Kinds()))
	}
}

func TestTraceAdd(t *testing.T) {
	tr := &Trace{Name: "test"}
	tr.Add(HAdd, 10, 3)
	tr.Add(CMult, 10, 2)
	tr.Add(HAdd, 8, 1)
	tr.Add(HAdd, 8, 0)   // dropped: zero count
	tr.Add(PMult, 0, 5)  // dropped: invalid limbs
	tr.Add(PMult, 4, -1) // dropped: negative count

	if got := tr.TotalOps(); got != 6 {
		t.Errorf("TotalOps=%v want 6", got)
	}
	by := tr.CountByKind()
	if by[HAdd] != 4 || by[CMult] != 2 || by[PMult] != 0 {
		t.Errorf("CountByKind wrong: %v", by)
	}
}

func TestTraceAppendAndTags(t *testing.T) {
	a := &Trace{Name: "a"}
	a.AddTagged(Rotation, 5, 2, "CoeffToSlot")
	a.Add(Rescale, 5, 1)
	if len(a.Ops) != 2 {
		t.Fatalf("ops=%d want 2", len(a.Ops))
	}
	if a.Ops[0].Tag != "CoeffToSlot" || a.Ops[1].Tag != "" {
		t.Errorf("tags %q, %q: want CoeffToSlot, untagged", a.Ops[0].Tag, a.Ops[1].Tag)
	}
}
