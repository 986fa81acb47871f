//go:build !amd64

package ntt

// Without amd64 there are no vector bodies: numeric.Modulus.Body is
// BodyGo for every modulus, so every table's body is Go and the pass
// bodies below are unreachable.

func (t *Table) fwdPassLanes(a []uint64, kappa, m0, stride int) {
	panic("ntt: vector pass body on a non-amd64 build")
}

func (t *Table) invPassLanes(a []uint64, kappa, stride, segs int, fold bool) {
	panic("ntt: vector pass body on a non-amd64 build")
}
