package ntt

import (
	"fmt"
	"math/bits"

	"poseidon/internal/numeric"
)

// DefaultFusionDegree is the fusion degree production transforms run at:
// radix-8 passes, the paper's Fig-10 inflection and the measured sweet spot
// of the register kernels.
const DefaultFusionDegree = 3

// FusedPlan is a radix-2^k execution plan for the forward NTT of one Table —
// the software form of the paper's "fused TAM" (§IV-B). Each pass fuses up
// to k consecutive radix-2 stages into one sweep over the coefficient
// vector: a block of 2^κ operands is gathered into registers, pushed through
// κ Harvey butterfly stages without touching memory in between, and written
// back once. Intermediate residues stay in the lazy [0, 4q) band the whole
// transform; the single deferred normalization per coefficient happens in
// the final pass, so the number of memory passes drops from log2(N) to
// ceil(log2(N)/k) and every in-block reduction slot is deferred by
// construction rather than checked per butterfly.
//
// Where the hardware TAM pays for fusion with precomputed twiddle-product
// storage (the dense matrices of Table II, modeled by FusedBlockCosts), the
// CPU kernel pays with register pressure and code size. A plan holds no
// twiddles of its own: the factors a pass needs are the ordinary stage
// twiddles, and the table's bit-reversed layout already stores each
// segment's run contiguously (see fused_kernels.go), so the plan is just the
// pair (table, k) — free to build, nothing to keep alive. Forward allocates
// nothing and is safe for concurrent use.
type FusedPlan struct {
	Table *Table
	K     int
}

// NewFusedPlan constructs the radix-2^k plan. k must be in [1, 6]; values
// above log2(N) are clamped to a single full-width pass. When log2(N) is
// not a multiple of k, the remainder runs as a shorter first pass (where
// strides are largest and per-segment overhead amortizes best); all
// remaining passes fuse exactly k stages.
func NewFusedPlan(t *Table, k int) (*FusedPlan, error) {
	if k < 1 || k > 6 {
		return nil, fmt.Errorf("ntt: fusion degree k=%d out of range [1,6]", k)
	}
	return &FusedPlan{Table: t, K: k}, nil
}

func log2(x int) int { return bits.Len(uint(x)) - 1 }

// fusedPasses returns the pass count ceil(logN/k) and the width of the one
// remainder pass, logN − k·(passes−1) ∈ [1, k].
func fusedPasses(logN, k int) (passes, rem int) {
	passes = (logN + k - 1) / k
	return passes, logN - k*(passes-1)
}

// Forward computes the forward negacyclic NTT of a via the fused plan.
// Output is bit-identical to ForwardStrict (bit-reversed order, fully
// reduced). Zero allocations.
func (p FusedPlan) Forward(a []uint64) {
	p.forward(a, nil)
}

// ForwardCounted is Forward with operation accounting into s. The counted
// run executes the generic (non-specialized) kernels, which are bit-identical
// to the fast path; counting follows the TAM convention of Stats — one
// reduction slot per block output per pass, so fusion's deferral shows up as
// a Reductions total of N per pass instead of N per stage.
func (p FusedPlan) ForwardCounted(a []uint64, s *Stats) {
	p.forward(a, s)
}

func (p FusedPlan) forward(a []uint64, st *Stats) {
	t := p.Table
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	mod, psi, sh := t.Mod, t.psiBR, t.psiBRShoup
	// m0 is the pass's first stage parameter (= its segment count); the
	// remainder pass runs first, every later pass fuses exactly K stages.
	_, kappa := fusedPasses(t.LogN, p.K)
	for m0 := 1; m0 < t.N; m0, kappa = m0<<uint(kappa), p.K {
		stride := t.N / (m0 << uint(kappa))
		// The final pass always lands on stride 1 (contiguous blocks) and
		// performs the one deferred normalization per coefficient.
		last := stride == 1
		switch {
		case st != nil || kappa > 3 || kappa < 3 && last:
			t.fwdPassGeneric(a, kappa, m0, last, st)
		case t.body != numeric.BodyGo && (stride >= 8 || kappa == 3 && last):
			t.fwdPassLanes(a, kappa, m0, stride)
		case kappa == 3 && last:
			fwdPass8Last(mod, a, psi, sh, m0)
		case kappa == 3:
			fwdPass8(mod, a, psi, sh, m0, stride)
		case kappa == 2:
			fwdPass4(mod, a, psi, sh, m0, stride)
		default:
			fwdPass2(mod, a, psi, sh, m0, stride)
		}
	}
}

// fwdPassGeneric executes one fused pass of kappa stages starting at stage
// parameter m0 through a stack block buffer — the body of every counted run
// and of each shape the default plan never runs at N ≥ 8: κ > 3 and a
// κ < 3 final pass. Bit-identical to the specialized kernels.
func (t *Table) fwdPassGeneric(a []uint64, kappa, m0 int, final bool, st *Stats) {
	mod := t.Mod
	q := mod.Q
	twoQ := q << 1
	size := 1 << uint(kappa)
	stride := t.N / (m0 * size)
	var buf [64]uint64
	for seg := 0; seg < m0; seg++ {
		base := seg * stride * size
		for r := 0; r < stride; r++ {
			for tt := 0; tt < size; tt++ {
				buf[tt] = a[base+r+tt*stride]
			}
			for s := 0; s < kappa; s++ {
				groups := 1 << uint(s)
				span := size >> uint(s+1)
				// Stage s of segment seg reads psiBR[(m0+seg)·2^s + c].
				tw := (m0 + seg) << uint(s)
				for c := 0; c < groups; c++ {
					w, ws := t.psiBR[tw+c], t.psiBRShoup[tw+c]
					lb := c * 2 * span
					for lj := lb; lj < lb+span; lj++ {
						u := buf[lj]
						if u >= twoQ {
							u -= twoQ
						}
						x := buf[lj+span]
						hi, _ := bits.Mul64(x, ws)
						v := x*w - hi*q
						buf[lj] = u + v
						buf[lj+span] = u + twoQ - v
					}
				}
			}
			if final {
				for tt := 0; tt < size; tt++ {
					a[base+r+tt*stride] = mod.ReduceFourQ(buf[tt])
				}
			} else {
				for tt := 0; tt < size; tt++ {
					a[base+r+tt*stride] = buf[tt]
				}
			}
		}
	}
	if st != nil {
		st.countFusedPass(t.N, kappa, m0, final)
	}
}

// countFusedPass books one fused pass of kappa stages over n coefficients
// in `segs` segments under the TAM convention: two mult/add slots per
// butterfly (one per output), one reduction slot per block output per pass
// — performed only by the normalizing pass — and 2^kappa − 1 twiddle loads
// per segment.
func (s *Stats) countFusedPass(n, kappa, segs int, normalizes bool) {
	s.Mults += int64(n * kappa)
	s.Adds += int64(n * kappa)
	s.Reductions += int64(n)
	if normalizes {
		s.Normalizations += int64(n)
	} else {
		s.Deferred += int64(n)
	}
	s.TwiddleLoads += int64(((1 << uint(kappa)) - 1) * segs)
	s.FusedPasses++
}

// DistinctTwiddles returns the number of distinct non-trivial (≠0, ≠1)
// twiddle values each pass reads — the empirical counterpart of the
// paper's W column in Table II. A pass starting at stage parameter m0 reads
// exactly psiBR[m0 : m0·2^κ].
func (p FusedPlan) DistinctTwiddles() []int {
	t := p.Table
	var res []int
	_, kappa := fusedPasses(t.LogN, p.K)
	for m0 := 1; m0 < t.N; m0, kappa = m0<<uint(kappa), p.K {
		set := map[uint64]struct{}{}
		for _, w := range t.psiBR[m0 : m0<<uint(kappa)] {
			if w != 0 && w != 1 {
				set[w] = struct{}{}
			}
		}
		res = append(res, len(set))
	}
	return res
}

// Passes returns the number of fused passes (the paper's "iterations":
// ceil(logN / k)).
func (p FusedPlan) Passes() int {
	n, _ := fusedPasses(p.Table.LogN, p.K)
	return n
}
