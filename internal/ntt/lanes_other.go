//go:build !amd64

package ntt

// Without amd64 there are no lanes: NewTable never sets Table.lanes, so the
// pass bodies below are unreachable.

func (t *Table) fwdPassLanes(a []uint64, kappa, m0, stride int) {
	panic("ntt: IFMA52 lanes on a non-amd64 build")
}

func (t *Table) invPassLanes(a []uint64, kappa, stride, segs int, fold bool) {
	panic("ntt: IFMA52 lanes on a non-amd64 build")
}
