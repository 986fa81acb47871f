// Package numeric provides the scalar modular-arithmetic foundation that
// every Poseidon operator builds on: Barrett reduction (the paper's shared
// "SBT" operator), Shoup multiplication for hoisted constants, modular
// exponentiation and inversion, primality testing and NTT-friendly prime
// generation.
//
// All moduli are odd integers below 2^61 so that a+b and 4*q never overflow
// a uint64 and a 128-bit product fits in two 64-bit words. On amd64 CPUs
// with AVX-512 a modulus has a vector body (Modulus.Body, the module's one
// body rule: the IFMA52 lanes below 2^50, else the DQ lanes), and the
// keyswitch inner product (VecInnerProductPair), the plaintext MAC
// (VecMACPair) and ntt's passes run eight coefficients a register on it,
// with the same output. So does the RNS conversion (ConvertLanes), on the
// body its one shape gate ConvertBody picks from the widest source: the
// IFMA52 lanes where its budget holds, else the DQ lanes — q0, the P primes
// and 55- and 58-bit sources included — where theirs does.
package numeric

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. Keeping q < 2^61
// leaves headroom for lazy accumulation (values up to 8q) in NTT kernels.
const MaxModulusBits = 61

// Modulus bundles a prime modulus with the precomputed constants needed for
// Barrett and Shoup reductions. It is immutable after creation and safe for
// concurrent use. It is seven words, which the register ABI passes whole
// beside two scalar arguments (Mul's call of ReduceWide), so what follows
// from Q and the CPU (Body) is a function, not a field.
type Modulus struct {
	Q uint64 // the modulus itself

	// BarrettHi/BarrettLo hold floor(2^128 / Q), the 128-bit Barrett
	// constant used to reduce 128-bit products.
	BarrettHi uint64
	BarrettLo uint64

	// QInv is Q^-1 mod 2^64, the REDC constant of the Montgomery multiply
	// path (zero for Q = 2, where no inverse exists and the Montgomery
	// methods are undefined).
	QInv uint64

	// RModQ is 2^64 mod Q — the Montgomery radix residue used by MForm —
	// and RModQShoup its Shoup dual.
	RModQ      uint64
	RModQShoup uint64

	// Bits is the bit length of Q.
	Bits int
}

// NewModulus precomputes reduction constants for q. It panics if q is 0,
// even, or too wide; parameter construction is programmer-controlled, so a
// bad modulus is a bug rather than a runtime condition.
func NewModulus(q uint64) Modulus {
	if q == 0 {
		panic("numeric: zero modulus")
	}
	if q != 2 && q%2 == 0 {
		panic(fmt.Sprintf("numeric: even modulus %d", q))
	}
	if bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("numeric: modulus %d exceeds %d bits", q, MaxModulusBits))
	}
	hi, lo := barrettConstant(q)
	m := Modulus{Q: q, BarrettHi: hi, BarrettLo: lo, Bits: bits.Len64(q)}
	if q%2 == 1 {
		m.QInv = montgomeryInverse(q)
		_, m.RModQ = bits.Div64(1, 0, q) // 2^64 mod q
		m.RModQShoup = m.ShoupConstant(m.RModQ)
	}
	return m
}

// hasLanes reports AVX512F + AVX512IFMA, hasDQ AVX512F + AVX512DQ, each with
// OS-enabled ZMM state; both false off amd64. They are the one CPU probe,
// taken once, and only Body reads it.
var hasLanes, hasDQ = cpuAVX512()

// Body names a kernel body: how a modulus's vector kernels run.
type Body uint8

const (
	BodyGo     Body = iota // scalar Go: every modulus, every host
	BodyIFMA52             // the IFMA52 lanes: 52-bit multiplies, odd q < 2^50
	BodyDQ                 // the AVX-512 F + DQ lanes: 64-bit words, any odd q
)

func (b Body) String() string { return [...]string{"Go", "IFMA52", "DQ"}[b] }

// Body is the module's one body rule, a function of Q and the CPU probe:
// the IFMA52 lanes for an odd Q below 2^50 (every residue, and 4Q, fits the
// 52-bit multiplier) on an IFMA CPU, else the DQ lanes for an odd Q on an
// AVX-512 F + DQ CPU (Q < 2^61, so 4Q fits a 64-bit lane), else Go. Each
// kernel adds only its shape gate (vecBody, ConvertBody, ntt's N ≥ 64). No
// option, flag or environment variable reaches it.
func (m Modulus) Body() Body { return bodyOf(m.Q, hasLanes, hasDQ) }

// bodyOf is Body's rule for modulus q under the probe answers ifma and dq.
func bodyOf(q uint64, ifma, dq bool) Body {
	switch {
	case q&1 == 0:
		return BodyGo
	case ifma && q < 1<<50:
		return BodyIFMA52
	case dq:
		return BodyDQ
	}
	return BodyGo
}

// montgomeryInverse returns q^-1 mod 2^64 for odd q by Newton iteration:
// x_{k+1} = x_k·(2 − q·x_k) doubles the number of correct low bits, and
// x_0 = q is already correct mod 8.
func montgomeryInverse(q uint64) uint64 {
	x := q
	for i := 0; i < 5; i++ {
		x *= 2 - q*x
	}
	return x
}

// barrettConstant returns floor(2^128 / q) as a (hi, lo) pair.
func barrettConstant(q uint64) (hi, lo uint64) {
	// Divide 2^128 - 1 by q, then fix up: floor((2^128-1)/q) equals
	// floor(2^128/q) unless q divides 2^128, impossible for odd q > 1.
	hi, r := bits.Div64(0, ^uint64(0), q) // hi = floor((2^64-1)·2^64 / ... ) step 1
	lo, _ = bits.Div64(r, ^uint64(0), q)
	// (hi,lo) = floor((2^128 - 1)/q). For odd q>1 this equals floor(2^128/q).
	return hi, lo
}

// Add returns (a + b) mod q, assuming a, b < q.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns (a - b) mod q, assuming a, b < q.
func (m Modulus) Sub(a, b uint64) uint64 {
	d := a - b
	if d > a { // borrow
		d += m.Q
	}
	return d
}

// Neg returns (-a) mod q, assuming a < q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Mul returns (a * b) mod q using Barrett reduction of the 128-bit product.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.ReduceWide(hi, lo)
}

// ReduceWide reduces a 128-bit value (hi·2^64 + lo) modulo q with Barrett
// reduction. Valid for ANY 128-bit input — the lazy inner-product kernels
// rely on this to fold whole digit sums with one reduction. This is the
// scalar form of the paper's SBT operator.
//
// Correctness: with mu = floor(2^128/q), x·mu/2^128 = x/q − e where
// e = x·(2^128 mod q)/(q·2^128) < 1 for x < 2^128. The full-column sum
// below computes t = floor(x·mu/2^128) exactly (mod 2^64), so t undershoots
// floor(x/q) by at most 1 and the remainder r = x − t·q lies in [0, 2q);
// two conditional subtractions are provably sufficient with a full q of
// margin. Only the low 64 bits of t are needed: r < 2q < 2^64, so the
// 64-bit wraparound computation r = lo − t·q recovers it exactly.
func (m Modulus) ReduceWide(hi, lo uint64) uint64 {
	// x = hi·2^64 + lo, mu = BarrettHi·2^64 + BarrettLo.
	// x·mu = hi·BHi·2^128 + (hi·BLo + lo·BHi)·2^64 + lo·BLo; we need the
	// 2^128 column (the low word of the quotient estimate) plus the carry
	// out of the 2^64 column. Carries out of the 2^128 column and the
	// hi·BHi high word affect only quotient bits ≥ 64, which cancel mod
	// 2^64 in r = lo − t·q.
	mh1, _ := bits.Mul64(lo, m.BarrettLo)
	h2, l2 := bits.Mul64(lo, m.BarrettHi)
	h3, l3 := bits.Mul64(hi, m.BarrettLo)
	l4 := hi * m.BarrettHi

	// Carry out of the 2^64 column: mh1 + l2 + l3.
	s, c1 := bits.Add64(mh1, l2, 0)
	_, c2 := bits.Add64(s, l3, 0)

	// Low word of the quotient estimate.
	t := l4 + h2 + h3 + c1 + c2

	r := lo - t*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// ShoupConstant returns floor(w·2^64 / q), the hoisted constant for Shoup
// multiplication by the fixed operand w (w < q).
func (m Modulus) ShoupConstant(w uint64) uint64 {
	c, _ := bits.Div64(w, 0, m.Q)
	return c
}

// MulShoup returns (a * w) mod q given the precomputed Shoup constant
// wShoup = floor(w·2^64/q). One multiplication replaces the full Barrett
// sequence; this is how the hardware multiplies by twiddle factors.
func (m Modulus) MulShoup(a, w, wShoup uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	r := a*w - hi*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Pow returns a^e mod q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % m.Q
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^-1 mod q for prime q (Fermat). It panics on a == 0.
func (m Modulus) Inv(a uint64) uint64 {
	if a%m.Q == 0 {
		panic("numeric: inverse of zero")
	}
	return m.Pow(a, m.Q-2)
}

// Reduce returns a mod q for arbitrary a.
func (m Modulus) Reduce(a uint64) uint64 {
	if a < m.Q {
		return a
	}
	return a % m.Q
}

// ReduceSigned maps a signed value into [0, q).
func (m Modulus) ReduceSigned(a int64) uint64 {
	r := a % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}

// Centered maps a residue in [0, q) to its centered representative in
// (-q/2, q/2].
func (m Modulus) Centered(a uint64) int64 {
	if a > m.Q/2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}
