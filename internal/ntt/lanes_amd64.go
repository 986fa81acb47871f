package ntt

import "poseidon/internal/numeric"

// The vector pass bodies: lanes_amd64.s (IFMA52) and dq_amd64.s (AVX-512
// DQ), one loop skeleton (passes_amd64.h) with two multipliers. Each
// function runs the pass of the Go kernel named in the skeleton's comment,
// eight coefficients a register; the callers below pass only shapes that
// kernel accepts, and only on a table whose body is that function's
// (Table.body).

//go:noescape
func fwdLanes(a, psi, sh []uint64, kappa, m0, stride int, q uint64)

//go:noescape
func fwd8LastLanes(a, psi, sh []uint64, m0 int, q uint64)

//go:noescape
func inv8FirstLanes(a, psi, sh []uint64, segs int, q uint64)

//go:noescape
func inv8Lanes(a, psi, sh []uint64, segs, stride int, q uint64)

//go:noescape
func invFoldLanes(a, psi, sh []uint64, kappa, stride int, q, nInv, nInvShoup, nInvW, nInvWShoup uint64)

//go:noescape
func fwdDQ(a, psi, sh []uint64, kappa, m0, stride int, q uint64)

//go:noescape
func fwd8LastDQ(a, psi, sh []uint64, m0 int, q uint64)

//go:noescape
func inv8FirstDQ(a, psi, sh []uint64, segs int, q uint64)

//go:noescape
func inv8DQ(a, psi, sh []uint64, segs, stride int, q uint64)

//go:noescape
func invFoldDQ(a, psi, sh []uint64, kappa, stride int, q, nInv, nInvShoup, nInvW, nInvWShoup uint64)

// fwdPassLanes runs one forward pass of kappa ≤ 3 stages on the table's
// vector body: strided at stride ≥ 8, or the final radix-8 pass (stride 1).
func (t *Table) fwdPassLanes(a []uint64, kappa, m0, stride int) {
	psi, sh, q := t.psiBR, t.psiBRShoup, t.Mod.Q
	dq := t.body == numeric.BodyDQ
	switch {
	case stride == 1 && dq:
		fwd8LastDQ(a, psi, sh, m0, q)
	case stride == 1:
		fwd8LastLanes(a, psi, sh, m0, q)
	case dq:
		fwdDQ(a, psi, sh, kappa, m0, stride, q)
	default:
		fwdLanes(a, psi, sh, kappa, m0, stride, q)
	}
}

// invPassLanes runs one inverse pass of kappa ≤ 3 stages on the table's
// vector body: the N^-1 fold, the first radix-8 pass (stride 1) or a
// strided radix-8 pass.
func (t *Table) invPassLanes(a []uint64, kappa, stride, segs int, fold bool) {
	psi, sh, q := t.psiInvBR, t.psiInvBRShoup, t.Mod.Q
	dq := t.body == numeric.BodyDQ
	switch {
	case fold && dq:
		invFoldDQ(a, psi, sh, kappa, stride, q, t.nInv, t.nInvShoup, t.nInvPsiInv, t.nInvPsiInvShoup)
	case fold:
		invFoldLanes(a, psi, sh, kappa, stride, q, t.nInv, t.nInvShoup, t.nInvPsiInv, t.nInvPsiInvShoup)
	case stride == 1 && dq:
		inv8FirstDQ(a, psi, sh, segs, q)
	case stride == 1:
		inv8FirstLanes(a, psi, sh, segs, q)
	case dq:
		inv8DQ(a, psi, sh, segs, stride, q)
	default:
		inv8Lanes(a, psi, sh, segs, stride, q)
	}
}
