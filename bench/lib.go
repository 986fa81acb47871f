package main

import (
	"fmt"
	"time"

	"poseidon"
	"poseidon/internal/ckks"
)

// poolSize is how many input ciphertexts a library workload rotates
// through, so consecutive ops never re-read the operand the last op left in
// cache.
const poolSize = 4

// encryptPool encrypts the messages at the top level and default scale.
func encryptPool(params *ckks.Parameters, enc *ckks.Encoder, encr *ckks.Encryptor, msgs [][]complex128) []*ckks.Ciphertext {
	cts := make([]*ckks.Ciphertext, len(msgs))
	for i, z := range msgs {
		cts[i] = encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))
	}
	return cts
}

// --- cmult_chain -----------------------------------------------------------

type chainInst struct {
	params *ckks.Parameters
	ev     *ckks.Evaluator
	enc    *ckks.Encoder
	decr   *ckks.Decryptor

	msgs   [][]complex128
	inputs []*ckks.Ciphertext
	prod   []*ckks.Ciphertext // prod[l]: the level-l product
	down   []*ckks.Ciphertext // down[l]: the level-l rescaled value

	ops     int
	lastIdx int // input of the last completed op; -1 when none is retained
}

// chainReference is the cleartext program: depth successive squarings.
func chainReference(z []complex128, depth int) []complex128 {
	out := append([]complex128(nil), z...)
	for d := 0; d < depth; d++ {
		for i, v := range out {
			out[i] = v * v
		}
	}
	return out
}

func setupChain(e env) (instance, error) {
	params, err := e.rung(rungP13).params()
	if err != nil {
		return nil, err
	}
	kgen := ckks.NewKeyGenerator(params, e.seed)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	c := &chainInst{
		params:  params,
		ev:      ckks.NewEvaluator(params, rlk, nil),
		enc:     ckks.NewEncoder(params),
		decr:    ckks.NewDecryptor(params, sk),
		lastIdx: -1,
	}
	rng := e.rng(1)
	for i := 0; i < poolSize; i++ {
		// On the unit circle z^(2^depth) keeps magnitude 1 at every level.
		c.msgs = append(c.msgs, unitCircle(rng, params.Slots, 1))
	}
	c.inputs = encryptPool(params, c.enc, ckks.NewEncryptor(params, pk, e.seed+1), c.msgs)
	top := params.MaxLevel()
	c.prod = make([]*ckks.Ciphertext, top+1)
	c.down = make([]*ckks.Ciphertext, top+1)
	for l := 0; l <= top; l++ {
		c.prod[l] = ckks.NewCiphertext(params, l)
		c.down[l] = ckks.NewCiphertext(params, l)
	}
	return c, nil
}

func (c *chainInst) op(tr *tracer, id int32) error {
	idx := c.ops % len(c.inputs)
	root := tr.begin("cmult_chain", noSpan, id)
	cur := c.inputs[idx]
	for l := c.params.MaxLevel(); l >= 1; l-- {
		s := tr.begin("ckks.MulRelinInto", root, id)
		c.ev.MulRelinInto(c.prod[l], cur, cur)
		tr.end(s)
		s = tr.begin("ckks.RescaleInto", root, id)
		c.ev.RescaleInto(c.down[l-1], c.prod[l])
		tr.end(s)
		cur = c.down[l-1]
	}
	tr.end(root)
	c.ops++
	c.lastIdx = idx
	return nil
}

func (c *chainInst) runSegment(d time.Duration, tr *tracer) segResult {
	return runSerial(d, func(id int32) error { return c.op(tr, id) })
}

func (c *chainInst) validate() validation {
	var v validation
	if c.lastIdx < 0 {
		return v
	}
	got := c.enc.Decode(c.decr.Decrypt(c.down[0]))
	v.check(got, chainReference(c.msgs[c.lastIdx], c.params.MaxLevel()))
	c.lastIdx = -1
	return v
}

func (c *chainInst) close() {}

// --- lintrans_bsgs ---------------------------------------------------------

type linTransInst struct {
	kit *poseidon.Kit
	lt  *ckks.LinearTransform

	diags  [][]complex128 // diags[d][r] = M[r][(r+d) mod n]
	msgs   [][]complex128
	inputs []*ckks.Ciphertext
	dst    *ckks.Ciphertext

	ops     int
	lastIdx int
}

// bandDiagonals is how many diagonals the banded matrix has (capped by the
// slot count on smoke rings).
func bandDiagonals(slots int) int {
	if slots/4 < 128 {
		return slots / 4
	}
	return 128
}

// linTransReference is the cleartext program: out[r] = Σ_d M[r][r+d]·x[r+d].
func linTransReference(diags [][]complex128, x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for d, diag := range diags {
		for r := 0; r < n; r++ {
			out[r] += diag[r] * x[(r+d)%n]
		}
	}
	return out
}

func setupLinTrans(e env) (instance, error) {
	params, err := e.rung(rungP13).params()
	if err != nil {
		return nil, err
	}
	kit := poseidon.NewKit(params, e.seed)
	n := params.Slots
	nd := bandDiagonals(n)
	rng := e.rng(2)
	l := &linTransInst{kit: kit, lastIdx: -1}
	// Entries are scaled by 1/nd so every output slot stays inside the unit
	// disc and precision_bits is an absolute error on values of size 1.
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
	}
	l.diags = make([][]complex128, nd)
	for d := range l.diags {
		l.diags[d] = unitCircle(rng, n, 1/float64(nd))
		for r := 0; r < n; r++ {
			m[r][(r+d)%n] = l.diags[d][r]
		}
	}
	l.lt, err = ckks.NewLinearTransform(kit.Enc, m, params.MaxLevel(), params.Scale)
	if err != nil {
		return nil, fmt.Errorf("lintrans_bsgs: %w", err)
	}
	kit.LinearTransformKeys(l.lt)
	for i := 0; i < poolSize; i++ {
		l.msgs = append(l.msgs, unitCircle(rng, n, 1))
	}
	l.inputs = encryptPool(params, kit.Enc, kit.Encr, l.msgs)
	l.dst = ckks.NewCiphertext(params, params.MaxLevel())
	return l, nil
}

func (l *linTransInst) op(tr *tracer, id int32) error {
	idx := l.ops % len(l.inputs)
	root := tr.begin("lintrans_bsgs", noSpan, id)
	s := tr.begin("ckks.EvaluateLinearTransformInto", root, id)
	l.kit.Eval.EvaluateLinearTransformInto(l.dst, l.inputs[idx], l.lt)
	tr.end(s)
	tr.end(root)
	l.ops++
	l.lastIdx = idx
	return nil
}

func (l *linTransInst) runSegment(d time.Duration, tr *tracer) segResult {
	return runSerial(d, func(id int32) error { return l.op(tr, id) })
}

func (l *linTransInst) validate() validation {
	var v validation
	if l.lastIdx < 0 {
		return v
	}
	v.check(l.kit.DecryptValues(l.dst), linTransReference(l.diags, l.msgs[l.lastIdx]))
	l.lastIdx = -1
	return v
}

func (l *linTransInst) close() {}

// --- bootstrap_deep --------------------------------------------------------

type bootInst struct {
	params *ckks.Parameters
	btp    *ckks.Bootstrapper
	enc    *ckks.Encoder
	decr   *ckks.Decryptor

	msgs   [][]complex128
	inputs []*ckks.Ciphertext // level 0

	ops     int
	last    *ckks.Ciphertext
	lastIdx int
}

func setupBootstrap(e env) (instance, error) {
	r := e.rung(rungB9)
	params, err := r.params()
	if err != nil {
		return nil, err
	}
	kgen := ckks.NewKeyGenerator(params, e.seed)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	b := &bootInst{
		params:  params,
		enc:     ckks.NewEncoder(params),
		decr:    ckks.NewDecryptor(params, sk),
		lastIdx: -1,
	}
	b.btp, err = ckks.NewBootstrapper(params, b.enc, kgen, sk, ckks.BootstrapConfig{K: r.BootK})
	if err != nil {
		return nil, fmt.Errorf("bootstrap_deep: %w", err)
	}
	rng := e.rng(3)
	for i := 0; i < poolSize; i++ {
		b.msgs = append(b.msgs, unitCircle(rng, params.Slots, 1))
	}
	for _, ct := range encryptPool(params, b.enc, ckks.NewEncryptor(params, pk, e.seed+1), b.msgs) {
		b.inputs = append(b.inputs, b.btp.Evaluator().DropLevel(ct, 0))
	}
	return b, nil
}

// bootstrapReference is the cleartext program: a refresh is the identity.
func bootstrapReference(z []complex128) []complex128 { return z }

func (b *bootInst) op(tr *tracer, id int32) error {
	idx := b.ops % len(b.inputs)
	in := b.inputs[idx]
	var out *ckks.Ciphertext
	if tr == nil {
		var err error
		if out, err = b.btp.Bootstrap(in); err != nil {
			return err
		}
	} else {
		// The traced pass calls the four public stages in Bootstrap's own
		// order, so each is a span of the harness's making.
		root := tr.begin("bootstrap_deep", noSpan, id)
		stage := func(name string, fn func()) {
			s := tr.begin(name, root, id)
			fn()
			tr.end(s)
		}
		var raised, ct0, ct1 *ckks.Ciphertext
		stage("ckks.boot.ModRaise", func() { raised = b.btp.ModRaise(in) })
		stage("ckks.boot.CoeffToSlot", func() { ct0, ct1 = b.btp.CoeffToSlot(raised) })
		stage("ckks.boot.EvalMod", func() { ct0 = b.btp.EvalMod(ct0) })
		stage("ckks.boot.EvalMod", func() { ct1 = b.btp.EvalMod(ct1) })
		stage("ckks.boot.SlotToCoeff", func() { out = b.btp.SlotToCoeff(ct0, ct1) })
		out.Scale = b.params.Scale
		tr.end(root)
	}
	b.ops++
	b.last, b.lastIdx = out, idx
	return nil
}

func (b *bootInst) runSegment(d time.Duration, tr *tracer) segResult {
	return runSerial(d, func(id int32) error { return b.op(tr, id) })
}

func (b *bootInst) validate() validation {
	var v validation
	if b.lastIdx < 0 {
		return v
	}
	v.check(b.enc.Decode(b.decr.Decrypt(b.last)), bootstrapReference(b.msgs[b.lastIdx]))
	b.last, b.lastIdx = nil, -1
	return v
}

func (b *bootInst) close() {}
