//go:build !amd64

package numeric

// Without amd64 the probe answers no to both halves, so Modulus.Body is
// BodyGo for every modulus, VecInnerProductPair, VecMACPair and ntt's
// passes run Go, LanesFit refuses, and the bodies below are unreachable.

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
