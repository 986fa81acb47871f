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
	if len(values) > e.params.Slots {
		panic("ckks: too many values to encode")
	}
	vals := make([]complex128, e.params.Slots)
	copy(vals, values)
	v := e.params.RingQ.NewPoly(level + 1)
	e.embed(v, vals, level+1, scale)
	return &Plaintext{Value: v, Scale: scale, Level: level}
}

// encodeExt is Encode onto the extended basis Q_level ∪ P: one poly of
// level+1+Alpha rows in the digit layout holding the same rounded message
// integers — a transform diagonal, which the double-hoisted engine
// multiplies against lazy (extended-basis) baby-step rotations. The input
// slice is clobbered in place, so callers can reuse one scratch vector
// across many diagonals; it must span exactly Slots values.
func (e *Encoder) encodeExt(values []complex128, level int, scale float64) *ring.Poly {
	if len(values) != e.params.Slots {
		panic("ckks: encodeExt requires a full slot vector")
	}
	qLimbs := level + 1
	v := &ring.Poly{Coeffs: append(e.params.RingQ.NewPoly(qLimbs).Coeffs, e.params.RingP.NewPoly(e.params.Alpha()).Coeffs...)}
	e.embed(v, values, qLimbs, scale)
	return v
}

// embed writes the slot vector vals (clobbered) into v: the inverse
// canonical embedding, each coefficient scaled and rounded once, reduced row
// by row — the first qLimbs rows over Q, any further ones over P — and each
// row transformed with its own ring's table.
func (e *Encoder) embed(v *ring.Poly, vals []complex128, qLimbs int, scale float64) {
	n := e.params.Slots
	e.specialIFFT(vals)
	for j, x := range vals {
		vals[j] = complex(math.Round(real(x)*scale), math.Round(imag(x)*scale))
	}
	for i, row := range v.Coeffs {
		r, li := e.params.extRing(qLimbs, i)
		mod := r.Moduli[li]
		for j, x := range vals {
			row[j] = mod.ReduceSigned(int64(real(x)))
			row[j+n] = mod.ReduceSigned(int64(imag(x)))
		}
		r.ForwardLimb(li, row)
	}
	v.IsNTT = true
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
// CRT-reconstructed and centered, the CRT constants computed once for the
// call, so the result is exact up to the encoding/evaluation noise.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	n := e.params.Slots
	rq := e.params.RingQ
	p := pt.Value
	if p.IsNTT {
		p = p.CopyNew()
		rq.INTT(p)
	}
	crt := rq.NewCRT(len(p.Coeffs))
	vals := make([]complex128, n)
	for j := 0; j < n; j++ {
		re := bigToFloat(crt.Centered(p, j)) / pt.Scale
		im := bigToFloat(crt.Centered(p, j+n)) / pt.Scale
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
