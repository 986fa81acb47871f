package ckks

import (
	"math"
	"math/big"
	"math/cmplx"

	"poseidon/internal/ring"
)

// Encoder maps complex slot vectors to ring plaintexts and back via the
// canonical embedding: slot i holds m(ζ^{5^i}) for ζ = e^{iπ/N}, the
// ordering under which the Galois element 5 realizes a cyclic slot shift.
type Encoder struct {
	params *Parameters

	rotGroup []int        // 5^i mod 2N
	ksiPows  []complex128 // e^{2πi·j/2N}
}

// NewEncoder builds the FFT tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	n := params.Slots
	m := 2 * params.N
	e := &Encoder{params: params}
	e.rotGroup = make([]int, n)
	five := 1
	for i := 0; i < n; i++ {
		e.rotGroup[i] = five
		five = five * 5 % m
	}
	e.ksiPows = make([]complex128, m+1)
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.ksiPows[j] = cmplx.Exp(complex(0, angle))
	}
	return e
}

// Plaintext is an encoded message: an RNS polynomial with its scale and
// level.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
	Level int
}

// Encode embeds up to Slots complex values into a fresh plaintext at the
// given level and scale. Shorter inputs are zero-padded.
func (e *Encoder) Encode(values []complex128, level int, scale float64) *Plaintext {
	n := e.params.Slots
	if len(values) > n {
		panic("ckks: too many values to encode")
	}
	vals := make([]complex128, n)
	copy(vals, values)
	e.specialIFFT(vals)

	pt := &Plaintext{
		Value: e.params.RingQ.NewPoly(level + 1),
		Scale: scale,
		Level: level,
	}
	rq := e.params.RingQ
	for j := 0; j < n; j++ {
		re := int64(math.Round(real(vals[j]) * scale))
		im := int64(math.Round(imag(vals[j]) * scale))
		for i := 0; i <= level; i++ {
			pt.Value.Coeffs[i][j] = rq.Moduli[i].ReduceSigned(re)
			pt.Value.Coeffs[i][j+n] = rq.Moduli[i].ReduceSigned(im)
		}
	}
	rq.NTT(pt.Value)
	return pt
}

// encodeQP is Encode extended to the keyswitching basis: alongside the
// Q-basis plaintext it reduces the same rounded message integers over the
// special primes P and transforms them — the image double-hoisted linear
// transforms multiply against lazy (QP-basis) baby-step rotations. The
// input slice is clobbered in place by the IFFT, so callers can reuse one
// scratch vector across many diagonals; it must span exactly Slots values.
func (e *Encoder) encodeQP(values []complex128, level int, scale float64) (*Plaintext, *ring.Poly) {
	n := e.params.Slots
	if len(values) != n {
		panic("ckks: encodeQP requires a full slot vector")
	}
	e.specialIFFT(values)

	rq, rp := e.params.RingQ, e.params.RingP
	alpha := e.params.Alpha()
	pt := &Plaintext{
		Value: rq.NewPoly(level + 1),
		Scale: scale,
		Level: level,
	}
	ptP := rp.NewPoly(alpha)
	for j := 0; j < n; j++ {
		re := int64(math.Round(real(values[j]) * scale))
		im := int64(math.Round(imag(values[j]) * scale))
		for i := 0; i <= level; i++ {
			pt.Value.Coeffs[i][j] = rq.Moduli[i].ReduceSigned(re)
			pt.Value.Coeffs[i][j+n] = rq.Moduli[i].ReduceSigned(im)
		}
		for i := 0; i < alpha; i++ {
			ptP.Coeffs[i][j] = rp.Moduli[i].ReduceSigned(re)
			ptP.Coeffs[i][j+n] = rp.Moduli[i].ReduceSigned(im)
		}
	}
	rq.NTT(pt.Value)
	rp.NTT(ptP)
	return pt, ptP
}

// EncodeReal embeds real values (convenience wrapper).
func (e *Encoder) EncodeReal(values []float64, level int, scale float64) *Plaintext {
	cs := make([]complex128, len(values))
	for i, v := range values {
		cs[i] = complex(v, 0)
	}
	return e.Encode(cs, level, scale)
}

// Decode recovers the slot vector from a plaintext. Coefficients are
// CRT-reconstructed and centered, so the result is exact up to the
// encoding/evaluation noise.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	n := e.params.Slots
	rq := e.params.RingQ
	p := pt.Value
	if p.IsNTT {
		p = p.CopyNew()
		rq.INTT(p)
	}
	vals := make([]complex128, n)
	for j := 0; j < n; j++ {
		re := bigToFloat(rq.ToBigCentered(p, j)) / pt.Scale
		im := bigToFloat(rq.ToBigCentered(p, j+n)) / pt.Scale
		vals[j] = complex(re, im)
	}
	e.specialFFT(vals)
	return vals
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

// specialIFFT is the encoding-direction transform (HEAAN's fftSpecialInv):
// it inverts the canonical embedding restricted to the 5-power orbit.
func (e *Encoder) specialIFFT(vals []complex128) {
	n := len(vals)
	m := 2 * e.params.N
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - e.rotGroup[j]%lenq) % lenq * (m / lenq)
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseInPlace(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// specialFFT is the decoding-direction transform (HEAAN's fftSpecial).
func (e *Encoder) specialFFT(vals []complex128) {
	n := len(vals)
	m := 2 * e.params.N
	bitReverseInPlace(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := e.rotGroup[j] % lenq * (m / lenq)
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

func bitReverseInPlace(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j >= bit; bit >>= 1 {
			j -= bit
		}
		j += bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}
