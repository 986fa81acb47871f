package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"poseidon/internal/numeric"
)

func moduliOf(ps []uint64) []numeric.Modulus {
	ms := make([]numeric.Modulus, len(ps))
	for i, p := range ps {
		ms[i] = numeric.NewModulus(p)
	}
	return ms
}

func primes(t testing.TB, bits, logN, count int) []numeric.Modulus {
	t.Helper()
	ps, err := numeric.GenerateNTTPrimes(bits, logN, count)
	if err != nil {
		t.Fatal(err)
	}
	return moduliOf(ps)
}

func productOf(ms []numeric.Modulus) *big.Int {
	p := big.NewInt(1)
	for _, m := range ms {
		p.Mul(p, new(big.Int).SetUint64(m.Q))
	}
	return p
}

// residues encodes v (possibly negative) into the given basis.
func residues(v *big.Int, ms []numeric.Modulus, t int, out [][]uint64) {
	tmp := new(big.Int)
	for i, m := range ms {
		q := new(big.Int).SetUint64(m.Q)
		tmp.Mod(v, q)
		if tmp.Sign() < 0 {
			tmp.Add(tmp, q)
		}
		out[i][t] = tmp.Uint64()
	}
}

func compose(ms []numeric.Modulus, in [][]uint64, t int) *big.Int {
	prod := productOf(ms)
	acc := new(big.Int)
	tmp := new(big.Int)
	for i, m := range ms {
		qi := new(big.Int).SetUint64(m.Q)
		Qi := new(big.Int).Div(prod, qi)
		inv := new(big.Int).ModInverse(Qi, qi)
		tmp.SetUint64(in[i][t])
		tmp.Mul(tmp, inv).Mod(tmp, qi).Mul(tmp, Qi)
		acc.Add(acc, tmp)
	}
	acc.Mod(acc, prod)
	half := new(big.Int).Rsh(prod, 1)
	if acc.Cmp(half) > 0 {
		acc.Sub(acc, prod)
	}
	return acc
}

func allocLimbs(limbs, n int) [][]uint64 {
	backing := make([]uint64, limbs*n)
	out := make([][]uint64, limbs)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	return out
}

func TestExtenderExactForCenteredValues(t *testing.T) {
	src := primes(t, 30, 10, 3)
	dst := primes(t, 45, 10, 4)
	e := NewExtender(src, dst)

	n := 64
	in := allocLimbs(len(src), n)
	out := allocLimbs(len(dst), n)

	B := productOf(src)
	halfB := new(big.Int).Rsh(B, 2) // stay well inside ±B/2
	rng := rand.New(rand.NewSource(1))
	wants := make([]*big.Int, n)
	for t2 := 0; t2 < n; t2++ {
		v := new(big.Int).Rand(rng, halfB)
		if t2%2 == 1 {
			v.Neg(v)
		}
		wants[t2] = v
		residues(v, src, t2, in)
	}
	e.Extend(out, in)
	for t2 := 0; t2 < n; t2++ {
		got := compose(dst, out, t2)
		if got.Cmp(wants[t2]) != 0 {
			t.Fatalf("coeff %d: extended %v want %v", t2, got, wants[t2])
		}
	}
}

func TestExtenderEdgeValues(t *testing.T) {
	src := primes(t, 30, 8, 2)
	dst := primes(t, 45, 8, 3)
	e := NewExtender(src, dst)
	B := productOf(src)

	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		new(big.Int).Div(B, big.NewInt(4)),
		new(big.Int).Neg(new(big.Int).Div(B, big.NewInt(4))),
	}
	in := allocLimbs(len(src), len(cases))
	out := allocLimbs(len(dst), len(cases))
	for i, v := range cases {
		residues(v, src, i, in)
	}
	e.Extend(out, in)
	for i, v := range cases {
		if got := compose(dst, out, i); got.Cmp(v) != 0 {
			t.Errorf("case %d: got %v want %v", i, got, v)
		}
	}
}

// A table that cannot be right is refused when it is built: no source basis,
// or a destination modulus REDC has no inverse for (2, the one even modulus
// numeric.NewModulus accepts).
func TestNewExtenderPanics(t *testing.T) {
	odd := primes(t, 30, 8, 2)
	for name, build := range map[string]func(){
		"empty source":     func() { NewExtender(nil, odd) },
		"even destination": func() { NewExtender(odd, []numeric.Modulus{odd[0], numeric.NewModulus(2)}) },
		"even ModDown Q":   func() { NewModDownParams([]numeric.Modulus{numeric.NewModulus(2)}, odd) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}

func TestModDownDividesByP(t *testing.T) {
	q := primes(t, 45, 10, 4)
	p := primes(t, 46, 10, 2)
	md := NewModDownParams(q, p)

	n := 32
	P := productOf(p)
	Q := productOf(q)
	rng := rand.New(rand.NewSource(2))

	aQ := allocLimbs(len(q), n)
	aP := allocLimbs(len(p), n)
	out := allocLimbs(len(q), n)

	// x = P·y + r with |y| < Q/4 and small r; ModDown must return ≈ y.
	wants := make([]*big.Int, n)
	for t2 := 0; t2 < n; t2++ {
		y := new(big.Int).Rand(rng, new(big.Int).Rsh(Q, 2))
		if t2%2 == 0 {
			y.Neg(y)
		}
		r := big.NewInt(int64(rng.Intn(100)))
		x := new(big.Int).Mul(P, y)
		x.Add(x, r)
		wants[t2] = y
		residues(x, q, t2, aQ)
		residues(x, p, t2, aP)
	}
	md.ModDown(out, aQ, aP)
	for t2 := 0; t2 < n; t2++ {
		got := compose(q, out, t2)
		diff := new(big.Int).Sub(got, wants[t2])
		if diff.CmpAbs(big.NewInt(1)) > 0 {
			t.Fatalf("coeff %d: ModDown error %v", t2, diff)
		}
	}
}

func TestRescaleRoundsToNearest(t *testing.T) {
	ms := primes(t, 45, 10, 3)
	rs := NewRescaler(ms)
	n := 32
	in := allocLimbs(3, n)
	out := allocLimbs(2, n)

	ql := new(big.Int).SetUint64(ms[2].Q)
	Q2 := new(big.Int).Mul(new(big.Int).SetUint64(ms[0].Q), new(big.Int).SetUint64(ms[1].Q))
	rng := rand.New(rand.NewSource(3))
	wants := make([]*big.Int, n)
	for t2 := 0; t2 < n; t2++ {
		// x = ql·y + r, rescale yields y + round(r/ql) ∈ {y, y±1}.
		y := new(big.Int).Rand(rng, new(big.Int).Rsh(Q2, 2))
		if t2%3 == 0 {
			y.Neg(y)
		}
		r := big.NewInt(int64(rng.Intn(1000)))
		x := new(big.Int).Mul(ql, y)
		x.Add(x, r)
		wants[t2] = y
		residues(x, ms, t2, in)
	}
	rs.Rescale(out, in)
	for t2 := 0; t2 < n; t2++ {
		got := compose(ms[:2], out, t2)
		diff := new(big.Int).Sub(got, wants[t2])
		if diff.CmpAbs(big.NewInt(1)) > 0 {
			t.Fatalf("coeff %d: rescale error %v", t2, diff)
		}
	}
}

func TestRescalePanicsOnSingleLimb(t *testing.T) {
	ms := primes(t, 30, 8, 1)
	rs := NewRescaler(ms)
	defer func() {
		if recover() == nil {
			t.Fatal("single-limb rescale should panic")
		}
	}()
	rs.Rescale(allocLimbs(0, 4), allocLimbs(1, 4))
}

func TestDecomposerDigitRanges(t *testing.T) {
	q := primes(t, 40, 10, 6)
	p := primes(t, 41, 10, 2)
	d := NewDecomposer(q, p, 2)
	if got := d.Digits(5); got != 3 {
		t.Errorf("Digits(5)=%d want 3", got)
	}
	if got := d.Digits(4); got != 3 {
		t.Errorf("Digits(4)=%d want 3", got)
	}
	if got := d.Digits(1); got != 1 {
		t.Errorf("Digits(1)=%d want 1", got)
	}
	lo, hi := d.DigitRange(4, 2)
	if lo != 4 || hi != 5 {
		t.Errorf("DigitRange(4,2)=[%d,%d) want [4,5)", lo, hi)
	}
}

// The decomposition identity: sum over digits of u_d · Q̂_d · [Q̂_d^{-1}]_{D_d}
// must equal the original value modulo every active prime.
func TestDecomposeReconstruction(t *testing.T) {
	q := primes(t, 40, 10, 6)
	p := primes(t, 41, 10, 2)
	alpha := 2
	d := NewDecomposer(q, p, alpha)
	bigQ := productOf(q)

	for _, level := range []int{5, 4, 3, 1} {
		n := 8
		in := allocLimbs(level+1, n)
		rng := rand.New(rand.NewSource(int64(level)))
		origVals := make([]*big.Int, n)
		activeQ := q[:level+1]
		Qlvl := productOf(activeQ)
		for t2 := 0; t2 < n; t2++ {
			v := new(big.Int).Rand(rng, Qlvl)
			origVals[t2] = v
			residues(v, activeQ, t2, in)
		}

		digits := d.Digits(level)
		acc := make([]*big.Int, n)
		for i := range acc {
			acc[i] = new(big.Int)
		}
		out := allocLimbs(level+1+len(p), n)
		for dig := 0; dig < digits; dig++ {
			d.DecomposeAndExtend(level, dig, in, out)
			// Digit-own limbs must be verbatim copies.
			lo, hi := d.DigitRange(level, dig)
			for i := lo; i < hi; i++ {
				for t2 := 0; t2 < n; t2++ {
					if out[i][t2] != in[i][t2] {
						t.Fatalf("level %d digit %d: limb %d not copied", level, dig, i)
					}
				}
			}
			// Full-group reconstruction factor B_d = Q̂_d·[Q̂_d^{-1}]_{D_d}
			// computed with the *full* chain Q (keys are level-agnostic).
			gLo := dig * alpha
			gHi := gLo + alpha
			if gHi > len(q) {
				gHi = len(q)
			}
			Dd := productOf(q[gLo:gHi])
			Qhat := new(big.Int).Div(bigQ, Dd)
			tD := new(big.Int).ModInverse(new(big.Int).Mod(Qhat, Dd), Dd)
			Bd := new(big.Int).Mul(Qhat, tD)
			// u_d from the extended limbs (compose over active basis; the
			// extension is exact in that basis by construction).
			for t2 := 0; t2 < n; t2++ {
				// The extender produces the centered representative of the
				// digit value; recover it the same way from the digit-own
				// limbs. (Centered vs non-negative differ by D_d, which is
				// annihilated by B_d modulo Q.)
				ud := compose(q[lo:hi], sliceRange(in, lo, hi), t2)
				term := new(big.Int).Mul(ud, Bd)
				acc[t2].Add(acc[t2], term)

				// And the extended limbs must be consistent with ud modulo
				// every active modulus.
				for i := 0; i <= level; i++ {
					want := new(big.Int).Mod(ud, new(big.Int).SetUint64(q[i].Q)).Uint64()
					if out[i][t2] != want {
						t.Fatalf("level %d digit %d limb %d coeff %d: extension %d want %d",
							level, dig, i, t2, out[i][t2], want)
					}
				}
				for j := range p {
					want := new(big.Int).Mod(ud, new(big.Int).SetUint64(p[j].Q)).Uint64()
					if out[level+1+j][t2] != want {
						t.Fatalf("level %d digit %d P-limb %d: extension mismatch", level, dig, j)
					}
				}
			}
		}
		// Σ_d u_d·B_d ≡ original mod every active prime.
		for t2 := 0; t2 < n; t2++ {
			for i := 0; i <= level; i++ {
				qi := new(big.Int).SetUint64(q[i].Q)
				got := new(big.Int).Mod(acc[t2], qi)
				want := new(big.Int).Mod(origVals[t2], qi)
				if got.Cmp(want) != 0 {
					t.Fatalf("level %d coeff %d limb %d: reconstruction %v want %v",
						level, t2, i, got, want)
				}
			}
		}
	}
}

func sliceRange(in [][]uint64, lo, hi int) [][]uint64 { return in[lo:hi] }
