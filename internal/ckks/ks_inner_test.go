package ckks

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/automorph"
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
)

// Tests of the one keyswitch inner-product stage (ksDigits.innerProduct):
// against the reduce-every-term macLimb chain, and against a math/big
// schoolbook oracle that shares no arithmetic with internal/numeric.

// ksInnerFixture is a ksDigits over random digit rows plus a random "key" of
// the same digit count — innerProduct only ever reads rows, so neither has
// to be a real decomposition or a real switching key. Residues 0 and q−1 are
// planted in every row.
type ksInnerFixture struct {
	k    *ksDigits
	key  *SwitchingKey
	perm []int
}

func newKsInnerFixture(params *Parameters, level, digits int, rng *rand.Rand) *ksInnerFixture {
	rq, rp := params.RingQ, params.RingP
	qLimbs, alpha := level+1, params.Alpha()
	ext1 := qLimbs + alpha
	k := &ksDigits{
		params: params, level: level, qLimbs: qLimbs, ext1: ext1,
		rows: make([][]uint64, 3*digits*ext1),
	}
	randRow := func(i int, row []uint64) {
		q := k.modulus(i).Q
		for j := range row {
			row[j] = rng.Uint64() % q
		}
		row[rng.Intn(len(row))] = 0
		row[rng.Intn(len(row))] = q - 1
	}
	randQP := func() PolyQP {
		p := PolyQP{Q: rq.NewPoly(qLimbs), P: rp.NewPoly(alpha)}
		for i := 0; i < ext1; i++ {
			if i < qLimbs {
				randRow(i, p.Q.Coeffs[i])
			} else {
				randRow(i, p.P.Coeffs[i-qLimbs])
			}
		}
		return p
	}
	f := &ksInnerFixture{
		k:    k,
		key:  &SwitchingKey{},
		perm: rq.NTTGaloisPermutation(automorph.GaloisElementForRotation(3, params.N)),
	}
	for d := 0; d < digits; d++ {
		ext := &ring.Poly{Coeffs: make([][]uint64, ext1)}
		for i := range ext.Coeffs {
			ext.Coeffs[i] = make([]uint64, params.N)
			randRow(i, ext.Coeffs[i])
		}
		f.k.digits = append(f.k.digits, ext)
		f.key.B = append(f.key.B, randQP())
		f.key.A = append(f.key.A, randQP())
	}
	return f
}

// keyRows returns the B and A rows of digit d on extended limb i.
func (f *ksInnerFixture) keyRows(d, i int) (b, a []uint64) {
	if i < f.k.qLimbs {
		return f.key.B[d].Q.Coeffs[i], f.key.A[d].Q.Coeffs[i]
	}
	return f.key.B[d].P.Coeffs[i-f.k.qLimbs], f.key.A[d].P.Coeffs[i-f.k.qLimbs]
}

// TestInnerProductMatchesStrictChain: for digit counts 1–8 and 70 (past
// numeric.MaxLazyProducts, so the sum is closed and reopened mid-chain), with
// and without the permutation gather and the add-into mode, the lazy stage
// leaves exactly the residues of the reduce-every-term macLimb chain.
func TestInnerProductMatchesStrictChain(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	rng := rand.New(rand.NewSource(101))
	level := params.MaxLevel()
	for _, digits := range []int{1, 2, 3, 4, 5, 6, 7, 8, 70} {
		f := newKsInnerFixture(params, level, digits, rng)
		for _, perm := range [][]int{nil, f.perm} {
			for _, add := range []bool{false, true} {
				for i := 0; i < f.k.ext1; i++ {
					mod := f.k.modulus(i)
					got0, got1 := make([]uint64, params.N), make([]uint64, params.N)
					for j := range got0 {
						got0[j], got1[j] = rng.Uint64()%mod.Q, rng.Uint64()%mod.Q
					}
					got0[0], got1[0] = mod.Q-1, 0
					want0, want1 := make([]uint64, params.N), make([]uint64, params.N)
					if add {
						copy(want0, got0)
						copy(want1, got1)
					}
					for d := 0; d < digits; d++ {
						b, a := f.keyRows(d, i)
						macLimb(want0, f.k.digits[d].Coeffs[i], b, perm, mod)
						macLimb(want1, f.k.digits[d].Coeffs[i], a, perm, mod)
					}
					f.k.innerProduct(i, f.key, perm, got0, got1, add)
					if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
						t.Fatalf("digits=%d perm=%v add=%v limb %d: lazy inner product differs from the macLimb chain",
							digits, perm != nil, add, i)
					}
				}
			}
		}
	}
}

// macLimb computes acc[j] += a[perm[j]]·b[j] mod q over one limb (perm nil
// reads a in order) — the reference chain: one full reduction and modular
// add per term.
func macLimb(acc, a, b []uint64, perm []int, mod numeric.Modulus) {
	if perm == nil {
		for j := range acc {
			acc[j] = mod.Add(acc[j], mod.Mul(a[j], b[j]))
		}
		return
	}
	for j, p := range perm {
		acc[j] = mod.Add(acc[j], mod.Mul(a[p], b[j]))
	}
}

// oracleGaloisPermutation derives the NTT-domain permutation of X ↦ X^g from
// the definition alone: slot j of the bit-reversed layout holds the
// evaluation at ψ^(2·brv(j)+1), and σ_g(f) evaluated there is f evaluated at
// that exponent times g. Plain loops, no ring code.
func oracleGaloisPermutation(logN int, g uint64) []int {
	n := 1 << logN
	brv := func(x int) int {
		r := 0
		for b := 0; b < logN; b++ {
			r = r<<1 | x>>b&1
		}
		return r
	}
	slotOf := map[uint64]int{} // exponent → slot
	for i := 0; i < n; i++ {
		slotOf[uint64(2*brv(i)+1)] = i
	}
	perm := make([]int, n)
	for j := range perm {
		perm[j] = slotOf[uint64(2*brv(j)+1)*g%uint64(2*n)]
	}
	return perm
}

// TestInnerProductBigOracle checks Σ_d σ_g(digit_d)·key_d against math/big
// schoolbook arithmetic modulo every prime of the three benchmark-shaped
// bases, at digit counts from level 0 to the top, with and without the
// add-into mode.
func TestInnerProductBigOracle(t *testing.T) {
	rep := func(b, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	shapes := []ParametersLiteral{
		{LogQ: append([]int{55}, rep(45, 5)...), LogP: []int{58, 58}, LogScale: 45}, // P13
		{LogQ: append([]int{55}, rep(45, 27)...), LogP: rep(52, 5), LogScale: 45},   // B9
		{LogQ: []int{50, 40, 40, 40}, LogP: []int{51, 51}, LogScale: 40},            // S11
	}
	const logN = 4
	rng := rand.New(rand.NewSource(103))
	for si, lit := range shapes {
		lit.LogN = logN
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		g := automorph.GaloisElementForRotation(1+si, params.N)
		perm := oracleGaloisPermutation(logN, g)
		if !slices.Equal(perm, params.RingQ.NTTGaloisPermutation(g)) {
			t.Fatalf("shape %d: ring permutation for g=%d disagrees with the definition", si, g)
		}
		for level := 0; level <= params.MaxLevel(); level += max(1, params.MaxLevel()/3) {
			f := newKsInnerFixture(params, level, params.Digits(level), rng)
			for _, add := range []bool{false, true} {
				for i := 0; i < f.k.ext1; i++ {
					bq := new(big.Int).SetUint64(f.k.modulus(i).Q)
					got0, got1 := make([]uint64, params.N), make([]uint64, params.N)
					for j := range got0 {
						got0[j], got1[j] = rng.Uint64()%bq.Uint64(), rng.Uint64()%bq.Uint64()
					}
					prev0, prev1 := slices.Clone(got0), slices.Clone(got1)
					f.k.innerProduct(i, f.key, perm, got0, got1, add)
					for j := 0; j < params.N; j++ {
						w0, w1 := new(big.Int), new(big.Int)
						if add {
							w0.SetUint64(prev0[j])
							w1.SetUint64(prev1[j])
						}
						for d := range f.k.digits {
							x := new(big.Int).SetUint64(f.k.digits[d].Coeffs[i][perm[j]])
							b, a := f.keyRows(d, i)
							w0.Add(w0, new(big.Int).Mul(x, new(big.Int).SetUint64(b[j])))
							w1.Add(w1, new(big.Int).Mul(x, new(big.Int).SetUint64(a[j])))
						}
						if w0.Mod(w0, bq).Uint64() != got0[j] || w1.Mod(w1, bq).Uint64() != got1[j] {
							t.Fatalf("shape %d level %d add=%v limb %d coeff %d: inner product disagrees with the big-integer sum",
								si, level, add, i, j)
						}
					}
				}
			}
		}
	}
}
