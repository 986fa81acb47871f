// Package isa defines the operator-level instruction set of the Poseidon
// datapath: the programs the control logic issues to the operator cores.
// Each instruction names scratchpad vectors (one RNS limb each, N residues)
// and an operator core family; the machine package executes programs both
// functionally (on real residues) and temporally (accumulating the same
// cycle/byte costs the analytic model charges).
//
// One program is compiled here: the hybrid keyswitch (CompileKeySwitch),
// the pipeline every keyed basic operation shares. The steps around it —
// the tensor product of CMult, the automorphism of Rotation, the final
// additions — run on the host.
package isa

import "fmt"

// Opcode selects an operator core or a memory transfer.
type Opcode int

const (
	// Load streams a vector from HBM into a scratchpad buffer.
	Load Opcode = iota
	// Store streams a scratchpad buffer back to HBM.
	Store
	// MAdd: Dst[i] = (A[i] + B[i]) mod q — the MA core.
	MAdd
	// MSub: Dst[i] = (A[i] − B[i]) mod q — MA core (subtract mode).
	MSub
	// MMul: Dst[i] = (A[i] · B[i]) mod q — the MM core (SBT folded in).
	MMul
	// MMulScalar: Dst[i] = (A[i] · Imm) mod q — MM core, scalar operand.
	MMulScalar
	// NTT transforms a buffer to the evaluation domain (fused radix-2^k).
	NTT
	// INTT transforms back to the coefficient domain.
	INTT
)

var mnemonics = [...]string{"LOAD", "STORE", "MADD", "MSUB", "MMUL", "MMULS", "NTT", "INTT"}

// String returns the mnemonic.
func (o Opcode) String() string {
	if o >= 0 && int(o) < len(mnemonics) {
		return mnemonics[o]
	}
	return fmt.Sprintf("OP(%d)", int(o))
}

// Reg identifies a scratchpad buffer holding one limb vector.
type Reg int

// Instr is one datapath instruction. Limb selects the modulus the operator
// reduces under. For Load/Store, Sym names the HBM-resident vector; Imm
// carries the scalar operand.
type Instr struct {
	Op   Opcode
	Dst  Reg
	A, B Reg
	Limb int
	Imm  uint64
	Sym  string
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case Load:
		return fmt.Sprintf("%-5s r%d, [%s] (q%d)", in.Op, in.Dst, in.Sym, in.Limb)
	case Store:
		return fmt.Sprintf("%-5s [%s], r%d (q%d)", in.Op, in.Sym, in.A, in.Limb)
	case MMulScalar:
		return fmt.Sprintf("%-5s r%d, r%d, #%d (q%d)", in.Op, in.Dst, in.A, in.Imm, in.Limb)
	case NTT, INTT:
		return fmt.Sprintf("%-5s r%d, r%d (q%d)", in.Op, in.Dst, in.A, in.Limb)
	default:
		return fmt.Sprintf("%-5s r%d, r%d, r%d (q%d)", in.Op, in.Dst, in.A, in.B, in.Limb)
	}
}

// Program is an instruction sequence with its register budget.
type Program struct {
	Name   string
	NumReg int
	Instrs []Instr
}

// Builder assembles programs with automatic register allocation.
type Builder struct {
	p    *Program
	next Reg
}

// NewBuilder starts a program.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Program{Name: name}}
}

// Alloc reserves a fresh scratchpad register.
func (b *Builder) Alloc() Reg {
	r := b.next
	b.next++
	if int(b.next) > b.p.NumReg {
		b.p.NumReg = int(b.next)
	}
	return r
}

// Emit appends an instruction.
func (b *Builder) Emit(in Instr) {
	b.p.Instrs = append(b.p.Instrs, in)
}

// Load emits a LOAD of HBM symbol sym (limb `limb`) into a fresh register.
func (b *Builder) Load(sym string, limb int) Reg {
	r := b.Alloc()
	b.Emit(Instr{Op: Load, Dst: r, Limb: limb, Sym: sym})
	return r
}

// Store emits a STORE of register r to HBM symbol sym.
func (b *Builder) Store(sym string, r Reg, limb int) {
	b.Emit(Instr{Op: Store, A: r, Limb: limb, Sym: sym})
}

// Bin emits a two-operand core op into a fresh register.
func (b *Builder) Bin(op Opcode, a, c Reg, limb int) Reg {
	r := b.Alloc()
	b.Emit(Instr{Op: op, Dst: r, A: a, B: c, Limb: limb})
	return r
}

// Unary emits a one-operand core op (NTT/INTT/MMulScalar).
func (b *Builder) Unary(op Opcode, a Reg, limb int, imm uint64) Reg {
	r := b.Alloc()
	b.Emit(Instr{Op: op, Dst: r, A: a, Limb: limb, Imm: imm})
	return r
}

// Build finalizes the program.
func (b *Builder) Build() *Program { return b.p }
