//go:build !amd64

package numeric

// Without amd64 there are no lanes: Modulus.Lanes and HasDQ are always
// false, so pickInner answers the Go body and the bodies below are
// unreachable.

func cpuAVX512() (ifma, dq bool) { return false, false }

func innerProductPairLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, qInv, r2 uint64) bool {
	panic("numeric: IFMA52 lanes on a non-amd64 build")
}

func innerProductPairDQ(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, mu, s uint64) bool {
	panic("numeric: DQ lanes on a non-amd64 build")
}

func convertLanes(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int) {
	panic("numeric: IFMA52 lanes on a non-amd64 build")
}
