package isa

import "testing"

func TestOpcodeStrings(t *testing.T) {
	want := map[Opcode]string{
		Load: "LOAD", Store: "STORE", MAdd: "MADD", MSub: "MSUB",
		MMul: "MMUL", MMulScalar: "MMULS", NTT: "NTT", INTT: "INTT",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("opcode %d: %q want %q", int(op), op.String(), s)
		}
	}
	if got := Opcode(len(want)).String(); got != "OP(8)" {
		t.Errorf("out-of-range opcode: %q want OP(8)", got)
	}
}

func TestBuilderRegisterAllocation(t *testing.T) {
	b := NewBuilder("t")
	r0 := b.Load("x", 0)
	r1 := b.Load("y", 0)
	r2 := b.Bin(MAdd, r0, r1, 0)
	b.Store("z", r2, 0)
	p := b.Build()
	if p.NumReg != 3 {
		t.Errorf("NumReg=%d want 3", p.NumReg)
	}
	if len(p.Instrs) != 4 {
		t.Errorf("instrs=%d want 4", len(p.Instrs))
	}
	if r0 == r1 || r1 == r2 {
		t.Error("registers must be distinct")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Load, Dst: 1, Sym: "a.c0", Limb: 2}, "LOAD  r1, [a.c0] (q2)"},
		{Instr{Op: Store, A: 3, Sym: "out", Limb: 0}, "STORE [out], r3 (q0)"},
		{Instr{Op: MAdd, Dst: 2, A: 0, B: 1, Limb: 1}, "MADD  r2, r0, r1 (q1)"},
		{Instr{Op: NTT, Dst: 4, A: 2, Limb: 0}, "NTT   r4, r2 (q0)"},
		{Instr{Op: MMulScalar, Dst: 1, A: 0, Imm: 7, Limb: 0}, "MMULS r1, r0, #7 (q0)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String()=%q want %q", got, c.want)
		}
	}
}
