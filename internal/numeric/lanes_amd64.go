//go:build !purego

package numeric

// innerProductPairLanes is the IFMA52 body of lanes_amd64.s: one run of at
// most laneRunLength(q) digits over len(out0) coefficients, a nonzero
// multiple of 8, every row at least that long (innerProductVec checks
// both). It reports false, having stopped part way, when a perm entry is
// not below len(out0).
//
//go:noescape
func innerProductPairLanes(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, qInv, r2 uint64) bool

// innerProductPairDQ is the AVX-512 DQ body of lanes_amd64.s: one run of
// at most dqRunLength(q) digits, with innerProductPairLanes' contract;
// mu = ⌊2^(64+s)/q⌋ and s = bits(q) − 1 are its Barrett constants
// (innerProductVec derives both).
//
//go:noescape
func innerProductPairDQ(out0, out1 []uint64, x, k0, k1 [][]uint64, perm []int, add bool, q, mu, s uint64) bool

// convertLanes is the IFMA52 body of lanes_amd64.s behind ConvertLanes,
// which checks its arguments.
//
//go:noescape
func convertLanes(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int)

// convertDQ is the AVX-512 DQ body of lanes_amd64.s behind ConvertLanes,
// which checks its arguments.
//
//go:noescape
func convertDQ(out, seed [][]uint64, mods []Modulus, w [][]uint64, nb, ys, k []uint64, t0, n, stride, cols int)

// asmBodies reports whether this build has lanes_amd64.s: amd64 without
// the purego tag (lanes_other.go is every other build).
const asmBodies = true

// cpuAVX512 is the CPU probe of lanes_amd64.s.
func cpuAVX512() (ifma, dq bool)
