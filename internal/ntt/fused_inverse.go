package ntt

import (
	"fmt"
	"math/bits"

	"poseidon/internal/numeric"
)

// InverseFusedPlan is the radix-2^k execution plan for the inverse
// (Gentleman-Sande) transform — the mirror of FusedPlan. GS stages run with
// growing span (1, 2, 4, …, N/2), so the plan groups them from the bottom:
// the first pass is always contiguous (stride 1) and any remainder group
// runs last, where strides are largest. The N^-1 scaling is folded into the
// final stage of the final pass via exact Shoup products (nInv on the sum
// output, nInv·psiInv on the difference output), so the inverse costs no
// separate scaling sweep and the output is fully reduced — bit-identical to
// InverseStrict. Like FusedPlan it is just (table, k): the kernels read the
// table's psiInvBR runs directly. Inverse allocates nothing and is safe for
// concurrent use.
type InverseFusedPlan struct {
	Table *Table
	K     int
}

// NewInverseFusedPlan constructs the inverse plan for fusion degree k in
// [1, 6]. When log2(N) is not a multiple of k the remainder runs as a
// shorter final pass; all earlier passes fuse exactly k stages.
func NewInverseFusedPlan(t *Table, k int) (*InverseFusedPlan, error) {
	if k < 1 || k > 6 {
		return nil, fmt.Errorf("ntt: fusion degree k=%d out of range [1,6]", k)
	}
	return &InverseFusedPlan{Table: t, K: k}, nil
}

// Inverse computes the inverse negacyclic NTT of a (input bit-reversed,
// output natural order, scaled by N^-1) via the fused plan. Output is
// bit-identical to InverseStrict. Zero allocations.
func (p InverseFusedPlan) Inverse(a []uint64) {
	p.inverse(a, nil)
}

// InverseCounted is Inverse with operation accounting into s, following the
// same TAM convention as FusedPlan.ForwardCounted: one reduction slot per
// block output per pass. The counted run executes the generic kernels,
// which are bit-identical to the fast path.
func (p InverseFusedPlan) InverseCounted(a []uint64, s *Stats) {
	p.inverse(a, s)
}

func (p InverseFusedPlan) inverse(a []uint64, st *Stats) {
	t := p.Table
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	mod, psi, sh := t.Mod, t.psiInvBR, t.psiInvBRShoup
	// stride is the pass's starting span; the first pass is contiguous
	// (stride 1), the last one — the remainder group — is a single segment
	// and carries the N^-1 fold on its last stage.
	passes, rem := fusedPasses(t.LogN, p.K)
	stride := 1
	for pi := 0; pi < passes; pi++ {
		kappa := p.K
		if pi == passes-1 {
			kappa = rem
		}
		segs := t.N / (stride << uint(kappa))
		fold := segs == 1
		switch {
		case st != nil || kappa > 3 || kappa < 3 && !fold:
			t.invPassGeneric(a, kappa, stride, fold, st)
		case t.body != numeric.BodyGo && (fold || kappa == 3):
			t.invPassLanes(a, kappa, stride, segs, fold)
		case kappa == 3 && fold:
			invPass8Fold(t, a, stride)
		case kappa == 3 && stride == 1:
			invPass8First(mod, a, psi, sh, segs)
		case kappa == 3:
			invPass8(mod, a, psi, sh, stride, segs)
		case kappa == 2:
			invPass4Fold(t, a, stride)
		default:
			invPass2Fold(t, a, stride)
		}
		stride <<= uint(kappa)
	}
}

// invPassGeneric executes one fused GS pass of kappa stages starting at span
// `stride` through a stack block buffer — the body of every counted run and
// of each shape the default plan never runs: κ > 3 and a κ < 3 pass that
// does not fold. Bit-identical to the specialized kernels.
func (t *Table) invPassGeneric(a []uint64, kappa, stride int, fold bool, st *Stats) {
	mod := t.Mod
	q := mod.Q
	twoQ := q << 1
	size := 1 << uint(kappa)
	segs := t.N / (stride * size)
	nI, nIS := t.nInv, t.nInvShoup
	var buf [64]uint64
	for seg := 0; seg < segs; seg++ {
		base := seg * stride * size
		for r := 0; r < stride; r++ {
			for tt := 0; tt < size; tt++ {
				buf[tt] = a[base+r+tt*stride]
			}
			for s := 0; s < kappa; s++ {
				span := 1 << uint(s)
				cnt := size >> uint(s+1)
				lastStage := fold && s == kappa-1
				// Stage s of segment seg reads psiInvBR[(segs+seg)·cnt + c].
				tw := (segs + seg) * cnt
				for c := 0; c < cnt; c++ {
					w, ws := t.psiInvBR[tw+c], t.psiInvBRShoup[tw+c]
					lb := c * 2 * span
					for lj := lb; lj < lb+span; lj++ {
						u, v := buf[lj], buf[lj+span]
						if lastStage {
							// Exact Shoup products fold N^-1 (the stage's one
							// twiddle becomes N^-1·psiInv) and fully reduce.
							buf[lj] = mod.MulShoup(u+v, nI, nIS)
							buf[lj+span] = mod.MulShoup(u+twoQ-v, t.nInvPsiInv, t.nInvPsiInvShoup)
							continue
						}
						xx := u + v
						if xx >= twoQ {
							xx -= twoQ
						}
						buf[lj] = xx
						d := u + twoQ - v
						hi, _ := bits.Mul64(d, ws)
						buf[lj+span] = d*w - hi*q
					}
				}
			}
			for tt := 0; tt < size; tt++ {
				a[base+r+tt*stride] = buf[tt]
			}
		}
	}
	if st != nil {
		st.countFusedPass(t.N, kappa, segs, fold)
	}
}

// Passes returns the number of fused passes (ceil(logN / k)).
func (p InverseFusedPlan) Passes() int {
	n, _ := fusedPasses(p.Table.LogN, p.K)
	return n
}
