//go:build !amd64

package numeric

// Without amd64 there are no lanes: Modulus.Lanes is always false, so the
// body below is unreachable.

func cpuHasIFMA() bool { return false }

func innerProductPairLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, qInv, r2 uint64) bool {
	panic("numeric: IFMA52 lanes on a non-amd64 build")
}
