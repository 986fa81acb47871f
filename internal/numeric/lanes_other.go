//go:build !amd64 || purego

package numeric

// Without amd64, or with the purego build tag, there is no assembly: the
// probe answers no to both halves, so Modulus.Body is BodyGo for every
// modulus, VecInnerProductPair, VecMACPair, the RNS conversion
// (ConvertBody), the elementwise family (VecTensor, VecMontMul, VecMulShoup,
// VecMulShoupAdd, VecSubMulShoup, VecMulShoupAddSum, VecAdd, VecAddScalar)
// and ntt's passes run Go, and the bodies below are unreachable. The tag is
// a build constraint, not a run-time option: CI builds and tests the whole
// module with it to keep the Go bodies tested on an AVX-512 host.

// asmBodies reports whether this build has lanes_amd64.s.
const asmBodies = false

func cpuAVX512() (ifma, dq bool) { return false, false }

func innerProductPairLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, qInv, r2 uint64) bool {
	panic("numeric: IFMA52 lanes in a build without assembly")
}

func innerProductPairDQ(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, mu, s uint64) bool {
	panic("numeric: DQ lanes in a build without assembly")
}

func convertLanes(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int) {
	panic("numeric: IFMA52 lanes in a build without assembly")
}

func convertDQ(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int) {
	panic("numeric: DQ lanes in a build without assembly")
}

func tensorLanes(o0, o1, o2, a0, a1, b0, b1 []uint64, q, qInv, r2 uint64) {
	panic("numeric: IFMA52 lanes in a build without assembly")
}

func montMulLanes(c, a, b []uint64, q, qInv, r2 uint64) {
	panic("numeric: IFMA52 lanes in a build without assembly")
}

func tensorDQ(o0, o1, o2, a0, a1, b0, b1 []uint64, q, mu, s uint64) {
	panic("numeric: DQ lanes in a build without assembly")
}

func montMulDQ(c, a, b []uint64, q, mu, s uint64) {
	panic("numeric: DQ lanes in a build without assembly")
}

func shoupLanes(c, a, sub, add0, add1 []uint64, w, ws, q, has uint64) {
	panic("numeric: IFMA52 lanes in a build without assembly")
}

func shoupDQ(c, a, sub, add0, add1 []uint64, w, ws, q, has uint64) {
	panic("numeric: DQ lanes in a build without assembly")
}

func addLanes(c, a, b []uint64, q uint64) {
	panic("numeric: vector lanes in a build without assembly")
}

func addScalarLanes(c, a []uint64, s, q uint64) {
	panic("numeric: vector lanes in a build without assembly")
}
