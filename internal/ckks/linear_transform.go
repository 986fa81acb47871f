package ckks

import (
	"fmt"
	"slices"

	"poseidon/internal/automorph"
	"poseidon/internal/ring"
)

// LinearTransform is an encoded n×n slot-wise matrix multiplication,
// evaluated with the baby-step/giant-step diagonal method: the matrix is
// stored as its generalized diagonals, pre-rotated so evaluation needs only
// ~2·√n rotations. Diagonals are encoded over the extended basis Q_l ∪ P,
// so the double-hoisted evaluation path can multiply them against lazy
// (not-yet-ModDowned) baby-step rotations; see double_hoist.go.
//
// The transform is its own evaluation schedule, resolved at construction:
// baby steps and giant-step groups in deterministic (sorted) order, with the
// Galois element and the NTT-domain permutation of every rotation, so the
// engine's hot loops never touch the ring's permutation table and operator
// traces and telemetry spans are reproducible run-to-run.
type LinearTransform struct {
	N1    int // baby-step width
	Level int // evaluation level: a higher input is dropped to it, a lower one refused
	Scale float64

	babySteps []int    // sorted nonzero inner rotation steps
	babyPerm  [][]int  // the NTT-domain permutation of each
	keyGal    []uint64 // Galois element of each baby step, then of each group (1 for j = 0)

	groups []ltGroup // giant-step groups, sorted by outer step j

	rotations []int    // all rotation steps, sorted ascending
	galois    []uint64 // distinct non-identity Galois elements, sorted
}

// ltGroup is one giant-step group: the non-zero diagonals sharing outer step
// j, in ascending inner-step order.
type ltGroup struct {
	j     int
	perm  []int // the giant rotation's NTT-domain permutation (nil when j == 0)
	terms []ltPlanTerm
}

// ltPlanTerm is one diagonal's contribution to a group sum. The diagonal
// d = j + i, already rotated by −j for the giant-step regrouping, is encoded
// at the transform's scale as one NTT-domain poly of Level+1+Alpha rows:
// Q_0…Q_Level, then P_0…P_{α−1}, the digit layout.
type ltPlanTerm struct {
	i       int        // inner (baby) step
	babyIdx int        // index into babySteps; −1 for i == 0 (the input itself)
	diag    *ring.Poly // the encoded diagonal over Q_l ∪ P
}

// Rotations returns the rotation steps required to evaluate the transform,
// sorted ascending.
func (lt *LinearTransform) Rotations() []int {
	return slices.Clone(lt.rotations)
}

// GaloisElements returns the distinct non-identity Galois elements the
// transform needs keys for, sorted ascending — the exact key set a serving
// tenant should upload before submitting transform evaluations.
func (lt *LinearTransform) GaloisElements() []uint64 {
	return slices.Clone(lt.galois)
}

// NewLinearTransform encodes matrix M (row-major, n×n with n = Slots) for
// evaluation at the given level, with the baby-step width planned from the
// matrix: the power-of-two split that minimises the double-hoisted engine's
// modeled cost over the non-zero diagonals actually present (see
// ltShape.splitCost). scale is the plaintext scale of the diagonals (the
// evaluation multiplies the ciphertext scale by it; rescale afterwards).
// Zero diagonals are skipped.
func NewLinearTransform(enc *Encoder, m [][]complex128, level int, scale float64) (*LinearTransform, error) {
	return NewLinearTransformBSGS(enc, m, level, scale, 0)
}

// ltZeroSq is the squared magnitude at or below which a matrix entry counts
// as zero when diagonals are detected.
const ltZeroSq = 1e-28

// NewLinearTransformBSGS is NewLinearTransform with an explicit baby-step
// width n1 (a power of two in [1, Slots]; 0 lets the planner choose). Pin
// the width when several transforms must share one rotation-key set — the
// planner sees one matrix at a time, so plan the costliest and pass its N1 to
// the rest — or to sweep it. An entry that is not finite, or too large for
// the scale, is ErrInvalidInput.
func NewLinearTransformBSGS(enc *Encoder, m [][]complex128, level int, scale float64, n1 int) (_ *LinearTransform, err error) {
	defer recoverOp("NewLinearTransform", &level, &err)
	n := enc.params.Slots
	if len(m) != n {
		return nil, fmt.Errorf("ckks: matrix has %d rows, want %d", len(m), n)
	}
	for t := range m {
		if len(m[t]) != n {
			return nil, fmt.Errorf("ckks: matrix row %d has %d columns, want %d", t, len(m[t]), n)
		}
	}
	if n1 != 0 && (n1 < 1 || n1 > n || n1&(n1-1) != 0) {
		return nil, fmt.Errorf("ckks: baby-step width %d must be a power of two in [1, %d]", n1, n)
	}

	// One row-major pass over the matrix finds the non-zero diagonals; the
	// planner and the gather below both work from that list, so the matrix
	// is streamed once and only populated diagonals are ever walked
	// column-strided.
	nz := make([]bool, n)
	for r, row := range m {
		for c, v := range row {
			// NaN counts as non-zero: its diagonal is encoded, and refused there.
			if re, im := real(v), imag(v); !(re*re+im*im <= ltZeroSq) {
				d := c - r
				if d < 0 {
					d += n
				}
				nz[d] = true
			}
		}
	}
	var ds []int
	for d, ok := range nz {
		if ok {
			ds = append(ds, d)
		}
	}
	if n1 == 0 {
		n1 = enc.params.ltShape(level).planSplit(ds, n)
	}
	lt := &LinearTransform{N1: n1, Level: level, Scale: scale}
	rq := enc.params.RingQ

	// Baby steps: the distinct nonzero inner steps, ascending, each with its
	// Galois element and permutation; babyIdx maps a step to its slot.
	inner := make([]bool, n1)
	for _, d := range ds {
		inner[d%n1] = true
	}
	babyIdx := make([]int, n1)
	for i := 1; i < n1; i++ {
		if inner[i] {
			babyIdx[i] = len(lt.babySteps)
			g := automorph.GaloisElementForRotation(i, rq.N)
			lt.babySteps = append(lt.babySteps, i)
			lt.keyGal = append(lt.keyGal, g)
			lt.babyPerm = append(lt.babyPerm, rq.NTTGaloisPermutation(g))
		}
	}
	lt.rotations = slices.Clone(lt.babySteps)

	// Giant-step groups, each diagonal encoded straight into its group's
	// term: ds is sorted, so j = ⌊d/n1⌋·n1 is nondecreasing and the terms of
	// each group arrive in ascending inner-step order; every j ≠ 0 is at
	// least n1, above every baby step, so the rotations stay sorted. One
	// scratch vector serves every diagonal: the pre-rotation by −j is folded
	// into the gather itself (rot[t] = diag_d[t−j]), so nothing is copied —
	// j=0 diagonals included. encodeExt clobbers the scratch in place; it is
	// refilled each iteration.
	rot := make([]complex128, n)
	for _, d := range ds {
		i := d % n1
		j := d - i
		if len(lt.groups) == 0 || lt.groups[len(lt.groups)-1].j != j {
			g := automorph.GaloisElementForRotation(j, rq.N)
			lt.keyGal = append(lt.keyGal, g)
			grp := ltGroup{j: j}
			if j != 0 {
				grp.perm = rq.NTTGaloisPermutation(g)
				lt.rotations = append(lt.rotations, j)
			}
			lt.groups = append(lt.groups, grp)
		}
		for t := 0; t < n; t++ {
			src := t - j
			if src < 0 {
				src += n
			}
			rot[t] = m[src][(src+d)%n]
		}
		term := ltPlanTerm{i: i, babyIdx: -1, diag: enc.encodeExt(rot, level, scale)}
		if i != 0 {
			term.babyIdx = babyIdx[i]
		}
		g := &lt.groups[len(lt.groups)-1]
		g.terms = append(g.terms, term)
	}
	// The key set: each rotation's Galois element once, the j = 0 group's
	// identity dropped.
	for _, g := range lt.keyGal {
		if g != 1 {
			lt.galois = append(lt.galois, g)
		}
	}
	slices.Sort(lt.galois)
	return lt, nil
}

// ltShape is what the cost of a baby-step/giant-step split depends on
// besides the diagonals themselves: the keyswitch geometry at the
// transform's level.
type ltShape struct {
	digits    int // keyswitch digits
	ext1      int // extended limbs qLimbs + alpha
	qLimbs    int
	nttPasses int // memory passes of one limb transform: ⌈logN/3⌉, fused radix-8
}

func (p *Parameters) ltShape(level int) ltShape {
	return ltShape{
		digits:    p.Digits(level),
		ext1:      level + 1 + p.Alpha(),
		qLimbs:    level + 1,
		nttPasses: (p.LogN + 2) / 3,
	}
}

// splitCost prices the double-hoisted evaluation of the non-zero diagonals
// ds (ascending) at baby-step width n1, in row traversals: every N-word row
// a stage of kernLinTrans loads or stores counts one, a gathered read
// included, a read-modify-write two, and an in-place transform pass two per
// limb. One line per stage the engine executes; stages whose cost does not
// depend on the split (the P·ct lift, the final close) are left out. keys
// is the number of rotation keys the split needs — the tie-break.
func (sh ltShape) splitCost(ds []int, n1 int) (rows, keys int) {
	D, E, Q := sh.digits, sh.ext1, sh.qLimbs
	A := E - Q
	ntt := 2 * sh.nttPasses

	baby := make([]bool, n1)
	babies, groups, identity, lastJ := 0, 0, 0, -1
	for _, d := range ds {
		i := d % n1
		if i == 0 {
			identity++
		} else if !baby[i] {
			baby[i] = true
			babies++
		}
		if j := d - i; j != lastJ {
			lastJ = j
			groups++
		}
	}
	rotated := groups // groups with j ≠ 0
	if len(ds) > 0 && ds[0] < n1 {
		rotated--
	}

	if babies > 0 {
		// hoist: inverse-transformed copy of c1, decomposition (Q in, D·E−Q
		// out) and digit transforms — the Q digit-own rows are c1's rows
		// themselves, neither written nor transformed.
		rows += Q*(2+ntt) + D*E + (D*E-Q)*ntt
	}
	// babySweepStage, per rotation: D gathered digit rows, 2D key rows and
	// two stores per limb; the gathered P·c0 add on the Q limbs.
	rows += babies * (E*(3*D+2) + 3*Q)
	// groupMac: plaintext, c0 and c1 rows per term; identity terms skip P limbs.
	rows += 3 * (len(ds)*E - identity*A)
	// groupSumStage, j = 0: both sums folded into the output rows.
	rows += (groups - rotated) * 4 * E
	// j ≠ 0 — groupSumStage: c1 stored and inverse-transformed;
	// groupBasisChunk: ModDown (E in, Q out) and decomposition (Q in, D·E
	// out); groupKsStage: digit transforms, the inner product folded into
	// the output rows (3D in, 2 in, 2 out per limb) and the gathered c0 add
	// (store, gather, read-modify-write).
	rows += rotated * (E*(1+ntt) + (E + Q) + (Q + D*E) + D*E*ntt + E*(3*D+4) + 4*E)
	return rows, babies + rotated
}

// planSplit returns the power-of-two baby-step width in [1, n] of least
// splitCost for the diagonals ds, ties going to fewer rotation keys, then to
// the narrower width.
func (sh ltShape) planSplit(ds []int, n int) int {
	best, bestRows, bestKeys := 1, 0, 0
	for n1 := 1; n1 <= n; n1 <<= 1 {
		rows, keys := sh.splitCost(ds, n1)
		if n1 == 1 || rows < bestRows || (rows == bestRows && keys < bestKeys) {
			best, bestRows, bestKeys = n1, rows, keys
		}
	}
	return best
}

// LinTransStats counts the work one linear-transform evaluation performed
// (bench/ reports it as ckks.lintrans.*). KeySwitches counts key-switch
// MAC pipelines (digit inner products against a switching key); the
// double-hoisted path runs the same number of MACs as the per-rotation
// baseline but collapses their basis reductions, which ModDownSweeps (one
// per rns.ModDown invocation) and the NTT limb counts make visible.
// PlainMACs counts per-diagonal plaintext multiply-accumulates (each one
// touches both ciphertext components).
type LinTransStats struct {
	BabySteps       int
	GiantSteps      int
	KeySwitches     int
	ModDownSweeps   int
	NTTLimbs        int
	InverseNTTLimbs int
	PlainMACs       int
}
