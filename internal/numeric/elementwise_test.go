package numeric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// elementwiseKernel is one kernel of the elementwise family as the body
// tests drive it: outs output rows and ins input rows, run on body b —
// BodyGo for its Go body — or through its exported entry (call), with w < q
// the constant of the Shoup forms and VecAddScalar. aliases lists the
// inputs the first output may be, as the callers alias them.
type elementwiseKernel struct {
	name      string
	outs, ins int
	aliases   []int
	run       func(m Modulus, b Body, o, in [][]uint64, w, ws uint64)
	call      func(m Modulus, o, in [][]uint64, w, ws uint64)
}

var elementwiseKernels = []elementwiseKernel{
	{"VecTensor", 3, 4, []int{0, 2}, func(m Modulus, b Body, o, in [][]uint64, _, _ uint64) {
		if b == BodyGo {
			m.tensorGo(o[0], o[1], o[2], in[0], in[1], in[2], in[3])
		} else {
			m.productVec(b, o[0], o[1], o[2], in[0], in[1], in[2], in[3])
		}
	}, func(m Modulus, o, in [][]uint64, _, _ uint64) {
		m.VecTensor(o[0], o[1], o[2], in[0], in[1], in[2], in[3])
	}},
	{"VecMontMul", 1, 2, []int{0, 1}, func(m Modulus, b Body, o, in [][]uint64, _, _ uint64) {
		if b == BodyGo {
			m.montMulGo(o[0], in[0], in[1])
		} else {
			m.productVec(b, o[0], nil, nil, in[0], nil, in[1], nil)
		}
	}, func(m Modulus, o, in [][]uint64, _, _ uint64) { m.VecMontMul(o[0], in[0], in[1]) }},
	{"VecMulShoup", 1, 1, []int{0}, func(m Modulus, b Body, o, in [][]uint64, w, ws uint64) {
		if b == BodyGo {
			m.mulShoupGo(o[0], in[0], w, ws)
		} else {
			m.shoupVec(b, o[0], in[0], nil, nil, nil, w, ws)
		}
	}, func(m Modulus, o, in [][]uint64, w, ws uint64) { m.VecMulShoup(o[0], in[0], w, ws) }},
	{"VecMulShoupAdd", 1, 2, []int{0}, func(m Modulus, b Body, o, in [][]uint64, w, ws uint64) {
		if b == BodyGo {
			m.mulShoupAddGo(o[0], in[0], in[1], w, ws)
		} else {
			m.shoupVec(b, o[0], in[1], nil, in[0], nil, w, ws)
		}
	}, func(m Modulus, o, in [][]uint64, w, ws uint64) { m.VecMulShoupAdd(o[0], in[0], in[1], w, ws) }},
	{"VecSubMulShoup", 1, 2, []int{0, 1}, func(m Modulus, b Body, o, in [][]uint64, w, ws uint64) {
		if b == BodyGo {
			m.subMulShoupGo(o[0], in[0], in[1], w, ws)
		} else {
			m.shoupVec(b, o[0], in[0], in[1], nil, nil, w, ws)
		}
	}, func(m Modulus, o, in [][]uint64, w, ws uint64) { m.VecSubMulShoup(o[0], in[0], in[1], w, ws) }},
	{"VecMulShoupAddSum", 1, 3, []int{0, 1}, func(m Modulus, b Body, o, in [][]uint64, w, ws uint64) {
		if b == BodyGo {
			m.mulShoupAddSumGo(o[0], in[0], in[1], in[2], w, ws)
		} else {
			m.shoupVec(b, o[0], in[2], nil, in[0], in[1], w, ws)
		}
	}, func(m Modulus, o, in [][]uint64, w, ws uint64) { m.VecMulShoupAddSum(o[0], in[0], in[1], in[2], w, ws) }},
	{"VecAdd", 1, 2, []int{0, 1}, func(m Modulus, b Body, o, in [][]uint64, _, _ uint64) {
		if b == BodyGo {
			m.addGo(o[0], in[0], in[1])
		} else {
			addLanes(o[0], in[0], in[1], m.Q)
		}
	}, func(m Modulus, o, in [][]uint64, _, _ uint64) { m.VecAdd(o[0], in[0], in[1]) }},
	{"VecAddScalar", 1, 1, []int{0}, func(m Modulus, b Body, o, in [][]uint64, w, _ uint64) {
		if b == BodyGo {
			m.addScalarGo(o[0], in[0], w)
		} else {
			addScalarLanes(o[0], in[0], w, m.Q)
		}
	}, func(m Modulus, o, in [][]uint64, w, _ uint64) { m.VecAddScalar(o[0], in[0], w) }},
}

// vectorBodies returns the vector bodies this host can run for m: the
// IFMA52 lanes where m's body is, and the DQ lanes — which take any odd
// modulus — where the CPU has them.
func vectorBodies(m Modulus) []Body {
	var bs []Body
	if m.Body() == BodyIFMA52 {
		bs = append(bs, BodyIFMA52)
	}
	if hasDQ && m.Q&1 == 1 {
		bs = append(bs, BodyDQ)
	}
	return bs
}

// elementwiseWords returns a word source for modulus q: random residues
// (pattern 0), all q − 1 (1), or 0, 1 and q − 1 mixed with random ones (2).
func elementwiseWords(rng *rand.Rand, q uint64, pattern int) func() uint64 {
	return func() uint64 {
		switch pattern % 3 {
		case 1:
			return q - 1
		case 2:
			if c := rng.Intn(4); c < 3 {
				return []uint64{0, 1, q - 1}[c]
			}
		}
		return rng.Uint64() % q
	}
}

// checkElementwise runs kernel k at length n on every body this host has
// for m — the Go body, each vector body and the exported entry — on the same
// inputs, with the first output aliasing input alias (−1: no alias), and
// fails unless every output word is below q and every body's words are the
// Go body's. It counts the body each run took.
func checkElementwise(t *testing.T, m Modulus, k elementwiseKernel, n int, rng *rand.Rand, pattern, alias int, ran map[Body]int) {
	t.Helper()
	word := elementwiseWords(rng, m.Q, pattern)
	in := make([][]uint64, k.ins)
	for r := range in {
		in[r] = make([]uint64, n)
		for j := range in[r] {
			in[r][j] = word()
		}
	}
	w := word()
	ws := m.ShoupConstant(w)
	what := fmt.Sprintf("%s q=%d (%d bits) n=%d pattern %d alias %d", k.name, m.Q, m.Bits, n, pattern, alias)
	run := func(body Body, exported bool) [][]uint64 {
		ins := make([][]uint64, k.ins)
		for r := range ins {
			ins[r] = slices.Clone(in[r])
		}
		o := make([][]uint64, k.outs)
		for r := range o {
			o[r] = make([]uint64, n)
		}
		if alias >= 0 {
			o[0] = ins[alias]
		}
		if exported {
			k.call(m, o, ins, w, ws)
		} else {
			k.run(m, body, o, ins, w, ws)
		}
		return o
	}
	want := run(BodyGo, false)
	requireBelow(t, what+" Go body", m.Q, want...)
	bodies := vectorBodies(m)
	if n == 0 || n%8 != 0 {
		bodies = nil
	}
	for _, b := range bodies {
		got := run(b, false)
		requireBelow(t, what+" body "+b.String(), m.Q, got...)
		for r := range got {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("%s: body %s output %d differs from the Go body", what, b, r)
			}
		}
		ran[b]++
	}
	got := run(BodyGo, true)
	for r := range got {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("%s: exported entry (body %s) output %d differs from the Go body", what, m.vecBody(n, 1), r)
		}
	}
	ran[m.vecBody(n, 1)]++
}

// elementwiseModuli are the moduli the elementwise differentials run on:
// the widest prime of every width from 20 to 61 bits (so 50, 51 and 52 on
// both sides of the IFMA52 bound) and the odd neighbours of 2^50.
func elementwiseModuli() []uint64 {
	qs := []uint64{1<<50 - 1, 1<<50 + 1}
	for width := 20; width <= MaxModulusBits; width++ {
		qs = append(qs, prevPrime(1<<width-1))
	}
	return qs
}

// Every vector body of every elementwise kernel must give the Go body's
// words, each below q, on prime widths 20–61 and the odd neighbours of
// 2^50, at lengths of one to three registers and N = 2^13 and at a length
// that is no multiple of 8 (the Go body takes it), on random words, all
// q − 1 and 0 / 1 / q − 1 mixed, unaliased and with the first output
// aliasing each input the callers alias. The log counts the body each run
// took; where the CPU has no vector body only the Go body runs.
func TestElementwiseMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ran := map[Body]int{}
	for _, q := range elementwiseModuli() {
		m := NewModulus(q)
		for _, k := range elementwiseKernels {
			for _, n := range []int{8, 13, 16, 24, 8192} {
				for pattern := 0; pattern < 3; pattern++ {
					checkElementwise(t, m, k, n, rng, pattern, -1, ran)
					if n == 8192 {
						continue
					}
					for _, a := range k.aliases {
						checkElementwise(t, m, k, n, rng, pattern, a, ran)
					}
				}
			}
		}
	}
	t.Logf("runs by body: %v", ran)
}

// FuzzElementwiseBodies fuzzes every elementwise kernel on every body this
// host has against its Go body: prime widths 20–61, lengths 0–2055 (whole
// registers and not), word patterns and the aliases the callers use; every
// output word must be below q.
func FuzzElementwiseBodies(f *testing.F) {
	f.Add(int64(1), uint8(61), uint16(8), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(45), uint16(64), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(50), uint16(24), uint8(4), uint8(2), uint8(2))
	f.Add(int64(4), uint8(58), uint16(13), uint8(5), uint8(1), uint8(1))
	f.Add(int64(5), uint8(20), uint16(512), uint8(6), uint8(2), uint8(0))
	primes := map[int]uint64{}
	f.Fuzz(func(t *testing.T, seed int64, widthRaw uint8, nRaw uint16, kernel, pattern, alias uint8) {
		width, n := 20+int(widthRaw)%42, int(nRaw)%2056
		q, ok := primes[width]
		if !ok {
			q = prevPrime(1<<width - 1)
			primes[width] = q
		}
		k := elementwiseKernels[int(kernel)%len(elementwiseKernels)]
		a := -1
		if c := int(alias) % (len(k.aliases) + 1); c < len(k.aliases) {
			a = k.aliases[c]
		}
		checkElementwise(t, NewModulus(q), k, n, rand.New(rand.NewSource(seed)), int(pattern), a, map[Body]int{})
	})
}

// The elementwise kernels allocate nothing on any body.
func TestElementwiseZeroAlloc(t *testing.T) {
	for _, q := range []uint64{35184371138561, 288230376150876161} {
		m := NewModulus(q)
		for _, n := range []int{13, 8192} {
			rows := make([][]uint64, 7)
			for r := range rows {
				rows[r] = make([]uint64, n)
			}
			for _, k := range elementwiseKernels {
				o, in := rows[:k.outs], rows[k.outs:k.outs+k.ins]
				if allocs := testing.AllocsPerRun(10, func() { k.call(m, o, in, 3, m.ShoupConstant(3)) }); allocs != 0 {
					t.Errorf("%s q=%d n=%d: %v allocs/op, want 0", k.name, q, n, allocs)
				}
			}
		}
	}
}

// BenchmarkElementwise is the elementwise family's go / no-go: each kernel
// alone at N = 2^13 on a 45-bit prime (the IFMA52 lanes) and a 58-bit one
// (DQ), the vector body and the Go body interleaved in bursts in one binary,
// reported as body-ns/word and go-ns/word per output word. "hot" repeats
// the call on the same rows (L1/L2-resident); "cold" walks 32 sets of rows,
// 32× the working set, so each call reads its rows from L3 or memory.
//
//	go test -run '^$' -bench BenchmarkElementwise -count 5 ./internal/numeric/
func BenchmarkElementwise(b *testing.B) {
	const n = 8192
	for _, v := range []struct {
		prefix string
		q      uint64
		body   Body
	}{
		{"q45", 35184371138561, BodyIFMA52},
		{"q58", 288230376150876161, BodyDQ},
	} {
		m := NewModulus(v.q)
		for _, k := range elementwiseKernels {
			for _, cold := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/hot", v.prefix, k.name)
				sets := 1
				if cold {
					name, sets = fmt.Sprintf("%s/%s/cold", v.prefix, k.name), 32
				}
				b.Run(name, func(b *testing.B) {
					if !slices.Contains(vectorBodies(m), v.body) {
						b.Skipf("no %s body on this CPU", v.body)
					}
					rng := rand.New(rand.NewSource(7))
					rows := make([][][]uint64, sets)
					for s := range rows {
						rows[s] = make([][]uint64, k.outs+k.ins)
						for r := range rows[s] {
							rows[s][r] = make([]uint64, n)
							for j := range rows[s][r] {
								rows[s][r][j] = rng.Uint64() % m.Q
							}
						}
					}
					w := rng.Uint64() % m.Q
					ws := m.ShoupConstant(w)
					const burst = 8
					var spent [2]time.Duration
					set := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < 2; j++ {
							body := [2]Body{v.body, BodyGo}[(i+j)%2]
							start := time.Now()
							for r := 0; r < burst; r++ {
								rs := rows[set]
								set = (set + 1) % sets
								k.run(m, body, rs[:k.outs], rs[k.outs:], w, ws)
							}
							spent[(i+j)%2] += time.Since(start)
						}
					}
					words := float64(b.N) * burst * n * float64(k.outs)
					b.ReportMetric(float64(spent[0].Nanoseconds())/words, "body-ns/word")
					b.ReportMetric(float64(spent[1].Nanoseconds())/words, "go-ns/word")
				})
			}
		}
	}
}
