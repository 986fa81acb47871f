package machine

import (
	"math/big"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/isa"
	"poseidon/internal/numeric"
)

// The basis conversions inside the keyswitch program, run one at a time on
// the constants isa.NewKeySwitchConstants derives. Hardware performs the
// approximate (correction-free) conversion of the paper's Fig 4 — MMULS/MADD
// cascades on the MM and MA cores — so a converted value may exceed the
// exact one by a small multiple of the source basis product.

// convMachine returns a machine over the chain [Q..., P...] of nq 45-bit
// and np 46-bit primes, with the keyswitch constants at the top level.
func convMachine(t *testing.T, n, nq, np int) (*Machine, isa.KeySwitchConstants) {
	t.Helper()
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	qs, err := numeric.GenerateNTTPrimes(45, logN, nq)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := numeric.GenerateNTTPrimes(46, logN, np)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.U280()
	cfg.Lanes = 64
	m, err := New(cfg, n, append(qs, ps...))
	if err != nil {
		t.Fatal(err)
	}
	return m, isa.NewKeySwitchConstants(m.Moduli[:nq], m.Moduli[nq:], nq-1)
}

// targetLimbs lists the machine limbs of the keyswitch's extended basis:
// the active Q limbs, then P.
func targetLimbs(ks isa.KeySwitchConstants) []int {
	var ls []int
	for t := 0; t <= ks.Level; t++ {
		ls = append(ls, t)
	}
	for j := 0; j < ks.Alpha; j++ {
		ls = append(ls, ks.LQ+j)
	}
	return ls
}

// modUpProgram extends digit d of symbol in onto the whole extended basis
// as the keyswitch program does: the digit's own limbs pass through, every
// other limb gets Σ_j y_j·(B/b_j) with y_j = x_j·(B/b_j)^{-1} mod b_j.
func modUpProgram(ks isa.KeySwitchConstants, d int, in, out string) *isa.Program {
	b := isa.NewBuilder("ModUp")
	lo, hi := ks.DigitLo[d], ks.DigitHi[d]
	var ys []isa.Reg
	for j := lo; j < hi; j++ {
		ys = append(ys, b.Unary(isa.MMulScalar, b.Load(in, j), j, ks.BHatInv[d][j-lo]))
	}
	for t, limb := range targetLimbs(ks) {
		if t >= lo && t < hi {
			b.Store(out, b.Load(in, t), t)
			continue
		}
		acc := b.Unary(isa.MMulScalar, ys[0], limb, ks.BHatMod[d][t][0])
		for j := 1; j < len(ys); j++ {
			acc = b.Bin(isa.MAdd, acc, b.Unary(isa.MMulScalar, ys[j], limb, ks.BHatMod[d][t][j]), limb)
		}
		b.Store(out, acc, limb)
	}
	return b.Build()
}

// writeDigit ships random values x < B (B the product of digit d's moduli)
// as residues on the digit's limbs of symbol sym and returns them with B.
func writeDigit(m *Machine, ks isa.KeySwitchConstants, d int, sym string, rng *rand.Rand) ([]*big.Int, *big.Int) {
	lo, hi := ks.DigitLo[d], ks.DigitHi[d]
	B := big.NewInt(1)
	for j := lo; j < hi; j++ {
		B.Mul(B, new(big.Int).SetUint64(m.Moduli[j].Q))
	}
	xs := make([]*big.Int, m.N)
	for i := range xs {
		xs[i] = new(big.Int).Rand(rng, B)
	}
	for j := lo; j < hi; j++ {
		qj := new(big.Int).SetUint64(m.Moduli[j].Q)
		v := make([]uint64, m.N)
		for i, x := range xs {
			v[i] = new(big.Int).Mod(x, qj).Uint64()
		}
		m.WriteHBM(sym, j, v)
	}
	return xs, B
}

// overflow returns the e in [0, maxE) with r ≡ x + e·B (mod q), or −1.
// It is unique: q is prime to B, so distinct small e give distinct residues.
func overflow(r uint64, x, B *big.Int, q uint64, maxE int) int {
	qb := new(big.Int).SetUint64(q)
	for e := 0; e < maxE; e++ {
		want := new(big.Int).Add(x, new(big.Int).Mul(big.NewInt(int64(e)), B))
		if want.Mod(want, qb).Uint64() == r {
			return e
		}
	}
	return -1
}

// Every digit's conversion (a full 3-limb digit and a partial 2-limb one at
// this shape) must put x + e·B on every limb outside the digit, for a small
// overflow e below the digit width, and charge only MM and MA cycles — the
// cascaded-core claim of Fig 4.
func TestProgramRNSConv(t *testing.T) {
	m, ks := convMachine(t, 32, 5, 3)
	rng := rand.New(rand.NewSource(1))
	for d := range ks.DigitLo {
		xs, B := writeDigit(m, ks, d, "x", rng)
		st, err := m.Run(modUpProgram(ks, d, "x", "y"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles[isa.NTT] != 0 {
			t.Error("RNSconv must use only MM and MA cores")
		}
		if st.Cycles[isa.MMul] == 0 || st.Cycles[isa.MAdd] == 0 {
			t.Error("RNSconv should exercise both MM and MA")
		}
		lo, hi := ks.DigitLo[d], ks.DigitHi[d]
		for t2, limb := range targetLimbs(ks) {
			if t2 >= lo && t2 < hi {
				continue
			}
			out, err := m.ReadHBM("y", limb)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				if overflow(out[i], x, B, m.Moduli[limb].Q, hi-lo) < 0 {
					t.Fatalf("digit %d limb %d coeff %d: result is not x + e·B for small e", d, limb, i)
				}
			}
		}
	}
}

// ModUp must pass the digit's own limbs through and extend the rest so that
// all l+α limbs represent one integer, x + e·B with the same e everywhere —
// the extended digit the keyswitch multiplies against the key.
func TestProgramModUp(t *testing.T) {
	m, ks := convMachine(t, 16, 4, 2)
	rng := rand.New(rand.NewSource(2))
	xs, B := writeDigit(m, ks, 0, "x", rng)
	if _, err := m.Run(modUpProgram(ks, 0, "x", "up")); err != nil {
		t.Fatal(err)
	}
	width := ks.DigitHi[0] - ks.DigitLo[0]
	outs := map[int][]uint64{}
	for _, limb := range targetLimbs(ks) {
		out, err := m.ReadHBM("up", limb)
		if err != nil {
			t.Fatalf("extended limb %d missing: %v", limb, err)
		}
		outs[limb] = out
	}
	for j := ks.DigitLo[0]; j < ks.DigitHi[0]; j++ {
		in, _ := m.ReadHBM("x", j)
		for i := range in {
			if outs[j][i] != in[i] {
				t.Fatalf("limb %d: ModUp must pass the digit's limbs through", j)
			}
		}
	}
	ext := targetLimbs(ks)[width:]
	for i, x := range xs {
		e := overflow(outs[ext[0]][i], x, B, m.Moduli[ext[0]].Q, width)
		for _, limb := range ext {
			if e < 0 || overflow(outs[limb][i], x, B, m.Moduli[limb].Q, width) != e {
				t.Fatalf("coeff %d limb %d: extension is not x + e·B with one small e on every limb", i, limb)
			}
		}
	}
}

// ModDown must divide by P with bounded error: for x = P·y + r (small r),
// the P → Q conversion, subtraction and P^-1 scaling return y + ε with
// |ε| ≤ len(P) (approximate conversion overflow plus rounding).
func TestProgramModDown(t *testing.T) {
	n := 16
	m, ks := convMachine(t, n, 3, 2)
	q, p := m.Moduli[:ks.LQ], m.Moduli[ks.LQ:]

	b := isa.NewBuilder("ModDown")
	ys := make([]isa.Reg, len(p))
	for j := range p {
		ys[j] = b.Unary(isa.MMulScalar, b.Load("ap", ks.LQ+j), ks.LQ+j, ks.MDBHatInv[j])
	}
	for i := range q {
		conv := b.Unary(isa.MMulScalar, ys[0], i, ks.MDBHatMod[i][0])
		for j := 1; j < len(ys); j++ {
			conv = b.Bin(isa.MAdd, conv, b.Unary(isa.MMulScalar, ys[j], i, ks.MDBHatMod[i][j]), i)
		}
		diff := b.Bin(isa.MSub, b.Load("aq", i), conv, i)
		b.Store("out", b.Unary(isa.MMulScalar, diff, i, ks.PInv[i]), i)
	}

	P := big.NewInt(1)
	for _, s := range p {
		P.Mul(P, new(big.Int).SetUint64(s.Q))
	}
	Q := big.NewInt(1)
	for _, s := range q {
		Q.Mul(Q, new(big.Int).SetUint64(s.Q))
	}

	rng := rand.New(rand.NewSource(3))
	ysWant := make([]*big.Int, n)
	inQ := make([][]uint64, len(q))
	inP := make([][]uint64, len(p))
	for i := range inQ {
		inQ[i] = make([]uint64, n)
	}
	for i := range inP {
		inP[i] = make([]uint64, n)
	}
	for t2 := 0; t2 < n; t2++ {
		y := new(big.Int).Rand(rng, new(big.Int).Rsh(Q, 2))
		ysWant[t2] = y
		x := new(big.Int).Mul(P, y)
		x.Add(x, big.NewInt(int64(rng.Intn(50))))
		for i, s := range q {
			inQ[i][t2] = new(big.Int).Mod(x, new(big.Int).SetUint64(s.Q)).Uint64()
		}
		for i, s := range p {
			inP[i][t2] = new(big.Int).Mod(x, new(big.Int).SetUint64(s.Q)).Uint64()
		}
	}
	for i := range inQ {
		m.WriteHBM("aq", i, inQ[i])
	}
	for i := range inP {
		m.WriteHBM("ap", ks.LQ+i, inP[i])
	}
	if _, err := m.Run(b.Build()); err != nil {
		t.Fatal(err)
	}

	// Compose the output over Q and compare against y with slack for the
	// approximate conversion (the extra e·P folds into ±len(P) on y).
	for t2 := 0; t2 < n; t2++ {
		acc := new(big.Int)
		for i, s := range q {
			out, _ := m.ReadHBM("out", i)
			qi := new(big.Int).SetUint64(s.Q)
			Qi := new(big.Int).Div(Q, qi)
			inv := new(big.Int).ModInverse(new(big.Int).Mod(Qi, qi), qi)
			term := new(big.Int).SetUint64(out[t2])
			term.Mul(term, inv).Mod(term, qi).Mul(term, Qi)
			acc.Add(acc, term)
		}
		acc.Mod(acc, Q)
		diff := new(big.Int).Sub(acc, ysWant[t2])
		if diff.CmpAbs(big.NewInt(int64(len(p)+1))) > 0 {
			t.Fatalf("coeff %d: ModDown error %v exceeds the approximate-conversion bound", t2, diff)
		}
	}
}
