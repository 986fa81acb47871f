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

// The whole keyswitch against math/big: ModUp of each digit, the inner
// product with the key and ModDown by P, composed as the evaluator runs them
// (KeySwitch, and Rotate under a Galois permutation), against the same
// three steps on integers — the centered CRT value of each digit, the
// negacyclic product with the key's CRT value summed over the digits, and
// the rounded division by P. It runs under whichever inner-product and
// conversion bodies the host picks; the P13 and B9 prime widths put q0 and
// the P primes on the DQ lanes where the CPU has them, every other Q prime
// on the IFMA52 lanes.

// bigCRT returns the CRT value in [0, ∏q) of coefficient j of rows, one row
// a prime of mods.
func bigCRT(rows [][]uint64, mods []numeric.Modulus, j int) (v, prod *big.Int) {
	prod, v = big.NewInt(1), new(big.Int)
	for _, m := range mods {
		prod.Mul(prod, new(big.Int).SetUint64(m.Q))
	}
	for i, m := range mods {
		bq := new(big.Int).SetUint64(m.Q)
		hat := new(big.Int).Div(prod, bq)
		w := new(big.Int).Mul(hat, new(big.Int).ModInverse(new(big.Int).Mod(hat, bq), bq))
		v.Add(v, w.Mul(w, new(big.Int).SetUint64(rows[i][j])))
	}
	return v.Mod(v, prod), prod
}

// centeredMod returns v mod m in (−m/2, m/2], m odd.
func centeredMod(v, m *big.Int) *big.Int {
	r := new(big.Int).Mod(v, m)
	if new(big.Int).Lsh(r, 1).Cmp(m) > 0 {
		r.Sub(r, m)
	}
	return r
}

// negacyclicAdd adds a·b mod X^n + 1 into acc.
func negacyclicAdd(acc, a, b []*big.Int) {
	n := len(acc)
	for i := range a {
		for j := range b {
			p := new(big.Int).Mul(a[i], b[j])
			if k := i + j; k < n {
				acc[k].Add(acc[k], p)
			} else {
				acc[k-n].Sub(acc[k-n], p)
			}
		}
	}
}

// galois returns σ_g(a)(X) = a(X^g) mod X^n + 1.
func galois(a []*big.Int, g uint64) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	for j := range a {
		k := uint64(j) * g % uint64(2*n)
		if k < uint64(n) {
			out[k] = new(big.Int).Set(a[j])
		} else {
			out[k-uint64(n)] = new(big.Int).Neg(a[j])
		}
	}
	return out
}

// randCoeffRows returns rows of random residues, one a modulus of mods, and
// their NTT images under r's limbs from index i0.
func randCoeffRows(rng *rand.Rand, r *ring.Ring, i0 int, mods []numeric.Modulus, n int) (coeff, ntt [][]uint64) {
	for i, m := range mods {
		row := make([]uint64, n)
		for j := range row {
			row[j] = rng.Uint64() % m.Q
		}
		row[rng.Intn(n)] = m.Q - 1
		coeff = append(coeff, row)
		img := slices.Clone(row)
		r.ForwardLimb(i0+i, img)
		ntt = append(ntt, img)
	}
	return coeff, ntt
}

// ipBody names the inner-product body VecInnerProductPair runs for m at
// length n on this CPU: m's body where n is a nonzero multiple of 8.
func ipBody(m numeric.Modulus, n int) string {
	if n == 0 || n%8 != 0 {
		return numeric.BodyGo.String()
	}
	return m.Body().String()
}

func TestKeySwitchBigOracle(t *testing.T) {
	rep := func(b, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	shapes := []struct {
		name string
		lit  ParametersLiteral
	}{
		{"P13", ParametersLiteral{LogQ: append([]int{55}, rep(45, 5)...), LogP: []int{58, 58}, LogScale: 45}},
		{"B9", ParametersLiteral{LogQ: append([]int{55}, rep(45, 27)...), LogP: rep(52, 5), LogScale: 45}},
	}
	const logN = 4
	rng := rand.New(rand.NewSource(113))
	for _, sh := range shapes {
		sh.lit.LogN = logN
		params, err := NewParameters(sh.lit)
		if err != nil {
			t.Fatal(err)
		}
		n, rq, rp := params.N, params.RingQ, params.RingP
		bodies := map[string]int{}
		for _, level := range []int{params.MaxLevel(), 2} {
			qMods, pMods := rq.Moduli[:level+1], rp.Moduli
			extMods := append(slices.Clone(qMods), pMods...)
			bigP := new(big.Int).SetInt64(1)
			for _, m := range pMods {
				bigP.Mul(bigP, new(big.Int).SetUint64(m.Q))
			}
			// A random ciphertext at the level and a random key of the
			// parameters' digit count, both drawn in the coefficient domain.
			ct := NewCiphertext(params, level)
			c0, c0NTT := randCoeffRows(rng, rq, 0, qMods, n)
			c1, c1NTT := randCoeffRows(rng, rq, 0, qMods, n)
			copy(ct.C0.Coeffs, c0NTT)
			copy(ct.C1.Coeffs, c1NTT)
			ct.C0.IsNTT, ct.C1.IsNTT = true, true
			ct.Scale = 1 << 45
			digits := params.Digits(params.MaxLevel())
			key := &SwitchingKey{}
			keyCoeff := make([][2][][]uint64, digits) // [d][B/A] rows over Q_level ∪ P
			for d := 0; d < digits; d++ {
				for c := range 2 {
					qc, qn := randCoeffRows(rng, rq, 0, rq.Moduli, n)
					pc, pn := randCoeffRows(rng, rp, 0, pMods, n)
					p := PolyQP{Q: rq.NewPoly(len(rq.Moduli)), P: rp.NewPoly(len(pMods))}
					copy(p.Q.Coeffs, qn)
					copy(p.P.Coeffs, pn)
					p.Q.IsNTT, p.P.IsNTT = true, true
					if c == 0 {
						key.B = append(key.B, p)
					} else {
						key.A = append(key.A, p)
					}
					keyCoeff[d][c] = append(qc[:level+1], pc...)
				}
			}
			for _, steps := range []int{0, 3} {
				g := uint64(1)
				if steps != 0 {
					g = automorph.GaloisElementForRotation(steps, n)
				}
				// The oracle: acc_c = Σ_d σ(x_d)·K_{d,c}, x_d the digit's
				// centered CRT value; out = (σ(c0) + ⌊acc_0/P⌉, ⌊acc_1/P⌉).
				acc := [2][]*big.Int{make([]*big.Int, n), make([]*big.Int, n)}
				for c := range acc {
					for j := range acc[c] {
						acc[c][j] = new(big.Int)
					}
				}
				for d := 0; d < params.Digits(level); d++ {
					lo, hi := params.decomposer.DigitRange(level, d)
					x := make([]*big.Int, n)
					for j := range x {
						v, prod := bigCRT(c1[lo:hi], qMods[lo:hi], j)
						x[j] = centeredMod(v, prod)
					}
					x = galois(x, g)
					for c := range acc {
						kc := make([]*big.Int, n)
						for j := range kc {
							kc[j], _ = bigCRT(keyCoeff[d][c], extMods, j)
						}
						negacyclicAdd(acc[c], x, kc)
					}
				}
				c0Int := make([]*big.Int, n)
				for j := range c0Int {
					v, prod := bigCRT(c0, qMods, j)
					c0Int[j] = centeredMod(v, prod)
				}
				c0Int = galois(c0Int, g)
				want := [2][][]uint64{}
				for c := range want {
					for i, m := range qMods {
						bq := new(big.Int).SetUint64(m.Q)
						row := make([]uint64, n)
						for j := range row {
							v := new(big.Int).Sub(acc[c][j], centeredMod(acc[c][j], bigP))
							v.Div(v, bigP)
							if c == 0 {
								v.Add(v, c0Int[j])
							}
							row[j] = v.Mod(v, bq).Uint64()
						}
						rq.ForwardLimb(i, row)
						want[c] = append(want[c], row)
					}
				}

				// The evaluator's keyswitch, composed as it ships.
				var out *Ciphertext
				if steps == 0 {
					out = NewEvaluator(params, nil, nil).KeySwitch(ct, key)
				} else {
					rtks := &RotationKeySet{Keys: map[uint64]*SwitchingKey{g: key}}
					out = NewEvaluator(params, nil, rtks).Rotate(ct, steps)
				}
				for c, got := range []*ring.Poly{out.C0, out.C1} {
					for i := range qMods {
						if !slices.Equal(got.Coeffs[i], want[c][i]) {
							t.Fatalf("%s level %d steps %d: component %d limb %d (q %d bits) disagrees with the big-integer keyswitch",
								sh.name, level, steps, c, i, qMods[i].Bits)
						}
					}
				}

				// The same keyswitch's accumulator, its stages driven one by
				// one: every word the inner product hands ModDown is the
				// canonical residue of acc — Q rows in the NTT domain, P
				// rows in the coefficient domain, as closeAccum reads them.
				k := &ksDigits{}
				k.bind(params, level)
				k.swk = key
				if steps != 0 {
					k.perm = rq.NTTGaloisPermutation(g)
				}
				k.acc = params.getPair(k.ext1, false)
				k.cx, k.own = rq.NewPoly(level+1), ct.C1.Coeffs
				for i := 0; i <= level; i++ {
					k.inttLimb(i)
				}
				k.digits = params.getDigits(nil, level)
				k.decomposeChunk(0, n)
				for i := 0; i < k.ext1; i++ {
					k.limbStage(i)
				}
				for c := range acc {
					for i, m := range extMods {
						bq := new(big.Int).SetUint64(m.Q)
						row := make([]uint64, n)
						for j := range row {
							row[j] = new(big.Int).Mod(acc[c][j], bq).Uint64()
						}
						if i <= level {
							rq.ForwardLimb(i, row)
						}
						if got := k.acc[c].Coeffs[i]; !slices.Equal(got, row) {
							t.Fatalf("%s level %d steps %d: accumulator %d row %d (%d bits, body %s) is not the canonical residue of the big-integer sum",
								sh.name, level, steps, c, i, m.Bits, ipBody(m, n))
						}
					}
				}
				for _, m := range extMods {
					bodies[ipBody(m, n)]++
				}
				params.putPolys(k.acc[:])
				params.putPolys(k.digits)
			}
		}
		t.Logf("%s: keyswitch and rotation match math/big at levels %d and 2; limbs by inner-product body: %v", sh.name, params.MaxLevel(), bodies)
	}
}
