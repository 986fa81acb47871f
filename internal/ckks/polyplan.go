package ckks

import (
	"math"
	"math/big"

	"poseidon/internal/ring"
)

// A polynomial is evaluated from a plan: the Paterson–Stockmeyer tree
// p = q·T_m + r over a baby-step basis, compiled into a list of nodes that
// each form one sum and rescale it once, executed through exec on arena-backed
// slots. The Chebyshev basis (T_{a+b} = 2·T_a·T_b − T_{|a−b|}) and the monomial
// one (x^{a+b} = x^a·x^b) share it, and only the basis elements some leaf or
// product reads are built: an odd series pays for no even T_k but 2^j.
//
// Scale rule: a node's scale says what was multiplied. Every constant is the
// integer round(c·σ) for the σ that lands its term on the sum it joins. Basis
// elements live at the working scale S_w = min(input scale, Δ) — the chain's
// own prime size, so a product comes back under one prime — and realise their
// scale bottom-up: the input map lands on S_w whatever label the input wears,
// and operands at S_a, S_b, times the integer n, over the dropped prime q, hold
// factor·a·b at S_a·S_b·n/(factor·q), the T_{|a−b|} or −1 completing them
// scaled onto exactly that. Tree nodes have theirs imposed top-down from the
// root, which lands on the input's scale; a leaf lands anywhere, its rounding
// a perturbation of its coefficients below 1/q. DESIGN.md §16 has the rest.

// rnsScalar is an integer constant as the scalar ops consume it: reduced
// modulo every chain prime up to its level, each residue with its Shoup dual.
type rnsScalar struct {
	val   float64  // the integer (every float64 this large is one)
	scale float64  // what val was sized for: val = round(c·scale)
	q, qs []uint64 // val mod q_i and ⌊(val mod q_i)·2^64/q_i⌋
}

func (p *Parameters) newScalar(c, scale float64, level int) rnsScalar {
	s := rnsScalar{val: math.Round(c * scale), scale: scale, q: make([]uint64, 2*(level+1))}
	s.q, s.qs = s.q[:level+1:level+1], s.q[level+1:]
	// Through math/big: a leaf coefficient sized for a 2^100 sum is no int64.
	v, _ := big.NewFloat(s.val).Int(nil)
	var r, q big.Int
	for i, mod := range p.RingQ.Moduli[:level+1] {
		s.q[i] = r.Mod(v, q.SetUint64(mod.Q)).Uint64()
		s.qs[i] = mod.ShoupConstant(s.q[i])
	}
	return s
}

// ratio returns Πnum/Πden rounded once: a scale composed of five or six
// floats one rounding at a time would sit a few ulps off what was multiplied.
func ratio(num, den []float64) float64 {
	r := new(big.Rat).SetInt64(1)
	for _, x := range num {
		r.Mul(r, new(big.Rat).SetFloat64(x))
	}
	for _, x := range den {
		r.Quo(r, new(big.Rat).SetFloat64(x))
	}
	f, _ := r.Float64()
	return f
}

type planTerm struct {
	src int     // node whose value is scaled in
	c   float64 // by this coefficient
	s   rnsScalar
}

// planNode holds rescale(mul·(a⊗b) + Σ terms) + sum + c0.
type planNode struct {
	a, b   int        // product operands; a < 0: none
	factor float64    // the product stands for factor·a·b
	mul    rnsScalar  // integer the raw product is multiplied by
	terms  []planTerm // scalar multiples of earlier nodes, summed before the rescale
	sum    int        // node added after it; < 0: none
	c0     float64    // constant added last
	add    rnsScalar
	basis  bool // scale realised bottom-up (basis element, input map), not imposed by the tree
	pre    int  // levels below the input at which the sum is formed
	depth  int  // … and at which the value lives
	scale  float64
	frees  []int // nodes this one reads last
}

type polyPlan struct {
	params      *Parameters
	cheb        bool
	alpha, beta float64 // the Chebyshev variable is u = αx + β
	eps         float64 // coefficients this small are no term
	n1          int     // baby-step width
	nodes       []planNode
	power       map[int]int // degree k → node holding T_k (x^k)

	level int     // what size bound the scalars to
	scale float64 // (the input's level and scale)
	work  float64 // scale basis elements are realised at: min(scale, Δ)

	free []*planRun // recycled under params.scratchMu
}

// checkCoeffs rejects a coefficient list no plan can be compiled from: an
// empty one, or one holding an infinity or a NaN.
func checkCoeffs(level int, coeffs []float64) error {
	if len(coeffs) == 0 {
		return opErr("EvalPoly", level, ErrInvalidInput, "no coefficients")
	}
	for k, c := range coeffs {
		if !finite(c) {
			return opErr("EvalPoly", level, ErrInvalidInput, "coefficient %d is %g", k, c)
		}
	}
	return nil
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// newPolyPlan compiles Σ coeffs[k]·T_k(αx+β) (cheb) or Σ coeffs[k]·x^k for
// inputs at the given scale; size binds it to a level.
func newPolyPlan(params *Parameters, cheb bool, coeffs []float64, alpha, beta, scale float64) *polyPlan {
	p := &polyPlan{params: params, cheb: cheb, alpha: alpha, beta: beta, n1: 2, power: map[int]int{}, scale: scale, work: min(scale, params.Scale)}
	p.nodes = []planNode{{a: -1, sum: -1}} // node 0 is the input
	if cheb {
		p.eps = 1e-14
	} else if scale < math.Sqrt2*params.Scale {
		// The monomial basis starts at the input itself, unless x·x would not
		// come back under one prime (its integer round(qΔ/S²) would be 0): then
		// it takes the input map too (1·x + 0).
		p.power[1] = 0
	}
	for p.n1*p.n1 < len(coeffs)-1 && p.n1 < 32 {
		p.n1 <<= 1
	}
	p.tree(coeffs)
	last := make([]int, len(p.nodes)) // the root is read by no one and frees itself
	for i := range p.nodes {
		last[i] = i
		p.nodes[i].reads(func(x int) { last[x] = i })
	}
	for x := 1; x < len(last); x++ {
		p.nodes[last[x]].frees = append(p.nodes[last[x]].frees, x)
	}
	return p
}

func (n *planNode) reads(f func(int)) {
	if n.a >= 0 {
		f(n.a)
		f(n.b)
	}
	for _, t := range n.terms {
		f(t.src)
	}
	if n.sum >= 0 {
		f(n.sum)
	}
}

// push appends a node after its operands — index order is execution order.
func (p *polyPlan) push(n planNode) int {
	n.reads(func(x int) {
		if x != n.sum {
			n.pre = max(n.pre, p.nodes[x].depth)
		}
	})
	n.depth = n.pre + 1
	if n.sum >= 0 {
		n.depth = max(n.depth, p.nodes[n.sum].depth)
	}
	p.nodes = append(p.nodes, n)
	return len(p.nodes) - 1
}

// basisNode returns the node of T_k (x^k), building it — and whatever it is
// built from — on first use: T_k = 2·T_a·T_{k−a} − T_{2a−k} for a the largest
// power of two below k, so depth stays ⌈log2 k⌉ products.
func (p *polyPlan) basisNode(k int) int {
	if i, ok := p.power[k]; ok {
		return i
	}
	if k == 1 { // the input map: T_1 = αx + β, onto the working scale
		p.power[1] = p.push(planNode{a: -1, sum: -1, basis: true, c0: p.beta, terms: []planTerm{{src: 0, c: p.alpha}}})
		return p.power[1]
	}
	a := 1
	for 2*a < k {
		a *= 2
	}
	n := planNode{a: p.basisNode(a), b: p.basisNode(k - a), factor: 1, sum: -1, basis: true}
	if p.cheb {
		n.factor = 2
		if 2*a == k {
			n.c0 = -1
		} else {
			n.terms = []planTerm{{src: p.basisNode(2*a - k), c: -1}}
		}
	}
	p.power[k] = p.push(n)
	return p.power[k]
}

// tree compiles p = q·T_m + r for the largest giant step m ≤ deg(p), down to
// leaves Σ c_k·T_k below the baby-step width.
func (p *polyPlan) tree(c []float64) int {
	deg := len(c) - 1
	for deg > 0 && math.Abs(c[deg]) <= p.eps {
		deg--
	}
	c = c[:deg+1]
	if deg < p.n1 {
		n := planNode{a: -1, sum: -1}
		if math.Abs(c[0]) > p.eps {
			n.c0 = c[0]
		}
		for k := deg; k >= 1; k-- {
			if math.Abs(c[k]) > p.eps {
				n.terms = append(n.terms, planTerm{src: p.basisNode(k), c: c[k]})
			}
		}
		if n.terms == nil { // a constant still needs a ciphertext to ride on
			n.terms = []planTerm{{src: 0}}
		}
		return p.push(n)
	}
	m := p.n1
	for 2*m <= deg {
		m *= 2
	}
	q, r := c[m:], c[:m]
	if p.cheb {
		q, r = chebDiv(c, m)
	}
	qi, ri := p.tree(q), p.tree(r)
	return p.push(planNode{a: qi, b: p.basisNode(m), factor: 1, sum: ri})
}

// depth is the number of levels between the input and the result.
func (p *polyPlan) depth() int { return p.nodes[len(p.nodes)-1].depth }

// size binds the plan to an input level: every integer, residue and scale.
// Basis nodes realise theirs first, in order; then the tree from the root down.
func (p *polyPlan) size(level int) error {
	if level < p.depth() {
		return opErr("EvalPoly", level, ErrLevelExhausted, "polynomial consumes %d levels, input has %d", p.depth(), level)
	}
	p.level = level
	p.nodes[0].scale, p.nodes[len(p.nodes)-1].scale = p.scale, p.scale
	for i := range p.nodes {
		if n := &p.nodes[i]; n.basis {
			if err := p.sizeNode(n); err != nil {
				return err
			}
		}
	}
	for i := len(p.nodes) - 1; i > 0; i-- {
		if n := &p.nodes[i]; !n.basis {
			if err := p.sizeNode(n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *polyPlan) sizeNode(n *planNode) error {
	nodes, l := p.nodes, p.level-n.pre
	q := float64(p.params.Q[l])
	tooLarge := func(v float64) error {
		if v >= 1 {
			return nil
		}
		return opErr("EvalPoly", l, ErrLevelExhausted, "scale 2^%.0f is too large for the chain's primes", math.Log2(p.scale))
	}
	// A constant sized at a scale is the integer round(c·scale), which must
	// be finite to have residues: a finite coefficient can still be too large.
	unsized := func(c, scale float64) error {
		if finite(math.Round(c * scale)) {
			return nil
		}
		return opErr("EvalPoly", l, ErrInvalidInput, "coefficient %g has no finite integer at scale 2^%.0f", c, math.Log2(scale))
	}
	switch {
	case n.a >= 0:
		// The integer lands the product as near its target as an integer can:
		// the working scale for a basis element, which records where it landed;
		// the imposed scale for a tree node, which asks the rest of its quotient.
		sa, sb, want := nodes[n.a].scale, nodes[n.b].scale, p.work
		if !n.basis {
			sa, want = p.scale, n.scale
		}
		n.mul = p.params.newScalar(n.factor, ratio([]float64{q, want}, []float64{sa, sb}), l)
		if err := tooLarge(n.mul.val); err != nil {
			return err
		}
		n.mul.scale = n.mul.val / n.factor
		if n.basis {
			n.scale = ratio([]float64{sa, sb, n.mul.scale}, []float64{q})
		} else {
			nodes[n.a].scale = ratio([]float64{q, n.scale}, []float64{sb, n.mul.scale})
		}
	case n.basis: // the input map: its one integer decides its scale
		t, in := n.terms[0], nodes[0].scale
		sc := ratio([]float64{q, p.work}, []float64{in})
		if err := unsized(t.c, sc); err != nil {
			return err
		}
		mul := math.Round(t.c * sc)
		if err := tooLarge(math.Abs(mul)); err != nil {
			return err
		}
		n.scale = ratio([]float64{in, mul}, []float64{t.c, q})
	}
	if n.sum >= 0 {
		nodes[n.sum].scale = n.scale
	}
	for k := range n.terms {
		t := &n.terms[k]
		sc := ratio([]float64{q, n.scale}, []float64{nodes[t.src].scale})
		if err := unsized(t.c, sc); err != nil {
			return err
		}
		t.s = p.params.newScalar(t.c, sc, l)
	}
	if err := unsized(n.c0, n.scale); err != nil {
		return err
	}
	n.add = p.params.newScalar(n.c0, n.scale, p.level-n.depth)
	return nil
}

// planRun is one evaluation's state, recycled by its plan: a ciphertext
// header per node, its polynomials out of the arena from when the node runs
// until its last reader has, and the views operands are cut to level through.
type planRun struct {
	ev   *Evaluator
	err  error
	cts  []Ciphertext
	view [3]struct {
		ct Ciphertext
		p  [2]ring.Poly
	}
}

// do runs one op unless an earlier one failed.
func (r *planRun) do(d *opDesc, out *Ciphertext, in operands) {
	if r.err == nil {
		_, r.err = r.ev.exec(d, out, in)
	}
}

// at returns ct cut to the given level through view header k.
func (r *planRun) at(k int, ct *Ciphertext, level int) *Ciphertext {
	if ct.Level == level {
		return ct
	}
	v := &r.view[k]
	v.p[0] = ring.Poly{Coeffs: ct.C0.Coeffs[:level+1], IsNTT: ct.C0.IsNTT}
	v.p[1] = ring.Poly{Coeffs: ct.C1.Coeffs[:level+1], IsNTT: ct.C1.IsNTT}
	v.ct = Ciphertext{C0: &v.p[0], C1: &v.p[1], Scale: ct.Scale, Level: level}
	return &v.ct
}

// release returns node i's polynomials to the arena.
func (p *polyPlan) release(r *planRun, i int) {
	p.params.releasePoly(&r.cts[i].C0)
	p.params.releasePoly(&r.cts[i].C1)
	r.cts[i] = Ciphertext{}
}

// evalInto evaluates the plan on in, writing the result — at level
// in.Level − depth and the input's scale — into out, a caller-owned
// ciphertext that is the only storage to outlive the call.
func (p *polyPlan) evalInto(ev *Evaluator, out, in *Ciphertext) error {
	if err := ev.validIn("EvalPoly", in); err != nil {
		return err
	}
	if in.Level < p.level || !sameScale(in.Scale, p.scale) {
		return opErr("EvalPoly", in.Level, ErrInvalidInput, "plan was sized for level %d and scale %g, input has scale %g", p.level, p.scale, in.Scale)
	}
	r := popFree(p.params, &p.free)
	if r.cts == nil {
		r.cts = make([]Ciphertext, len(p.nodes))
	}
	r.ev = ev
	defer func() { // also the sweep after a failed op
		for i := 1; i < len(r.cts); i++ {
			p.release(r, i)
		}
		*r = planRun{cts: r.cts}
		pushFree(p.params, &p.free, r)
	}()

	arena, last := p.params.arena, len(p.nodes)-1
	r.cts[0] = *r.at(2, in, p.level)
	r.cts[0].Scale = p.scale
	for i := 1; i <= last && r.err == nil; i++ {
		n, lvl := &p.nodes[i], p.level-p.nodes[i].pre
		acc := &r.cts[i]
		acc.C0, acc.C1 = arena.GetDirty(lvl+1), arena.GetDirty(lvl+1)
		if n.a >= 0 {
			r.do(&opMulRelin, acc, operands{a: r.at(0, &r.cts[n.a], lvl), b: r.at(1, &r.cts[n.b], lvl)})
			if n.mul.val != 1 {
				r.do(&opMulScalar, acc, operands{a: acc, s: &n.mul})
			}
		}
		for k := range n.terms {
			t := &n.terms[k]
			if src := r.at(0, &r.cts[t.src], lvl); n.a < 0 && k == 0 {
				r.do(&opMulScalar, acc, operands{a: src, s: &t.s})
			} else {
				r.do(&opMacScalar, acc, operands{a: acc, b: src, s: &t.s})
			}
		}
		home := acc
		if i == last {
			home = out
		}
		r.do(&opRescale, home, operands{a: acc})
		if n.sum >= 0 {
			r.do(&opAdd, home, operands{a: home, b: r.at(0, &r.cts[n.sum], min(home.Level, r.cts[n.sum].Level))})
		}
		if n.add.val != 0 {
			r.do(&opAddScalar, home, operands{a: home, s: &n.add})
		}
		home.Scale = n.scale
		for _, x := range n.frees {
			p.release(r, x)
		}
	}
	return r.err
}

// eval sizes the plan for ct and evaluates it into a fresh ciphertext.
func (p *polyPlan) eval(ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	if err := p.size(lvlOf(ct)); err != nil {
		return nil, err
	}
	out := NewCiphertext(ev.params, ct.Level-p.depth())
	return out, p.evalInto(ev, out, ct)
}
