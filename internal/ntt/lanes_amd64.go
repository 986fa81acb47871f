package ntt

// The IFMA52 pass bodies of lanes_amd64.s. Each runs the pass of the Go
// kernel named in its comment there, eight coefficients a register; the
// callers below pass only shapes that kernel accepts (see Table.lanes).

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

// fwdPassLanes runs one forward pass of kappa ≤ 3 stages on the lanes:
// strided at stride ≥ 8, or the final radix-8 pass (stride 1).
func (t *Table) fwdPassLanes(a []uint64, kappa, m0, stride int) {
	if stride == 1 {
		fwd8LastLanes(a, t.psiBR, t.psiBRShoup, m0, t.Mod.Q)
		return
	}
	fwdLanes(a, t.psiBR, t.psiBRShoup, kappa, m0, stride, t.Mod.Q)
}

// invPassLanes runs one inverse pass of kappa ≤ 3 stages on the lanes: the
// N^-1 fold, the first radix-8 pass (stride 1) or a strided radix-8 pass.
func (t *Table) invPassLanes(a []uint64, kappa, stride, segs int, fold bool) {
	switch {
	case fold:
		invFoldLanes(a, t.psiInvBR, t.psiInvBRShoup, kappa, stride, t.Mod.Q,
			t.nInv, t.nInvShoup, t.nInvPsiInv, t.nInvPsiInvShoup)
	case stride == 1:
		inv8FirstLanes(a, t.psiInvBR, t.psiInvBRShoup, segs, t.Mod.Q)
	default:
		inv8Lanes(a, t.psiInvBR, t.psiInvBRShoup, segs, stride, t.Mod.Q)
	}
}
