package ckks

import (
	"encoding/binary"
	"fmt"
	"math"

	"poseidon/internal/ring"
)

// Binary serialization for ciphertexts, plaintexts and secret keys: a
// little-endian framing with a magic/version header, suitable for moving
// encrypted data between the client and the (simulated) accelerator host.
//
// Layout (all little-endian uint64 unless noted):
//
//	magic | version | kind | scale(bits) | level | limbs | N | payload...
//
// Keys and parameters are regenerable from seeds, so only the data-plane
// objects are serialized.

const (
	serialMagic   = 0x504f534549444f4e // "POSEIDON"
	serialVersion = 1

	kindCiphertext = 1
	kindPlaintext  = 2
	kindSecretKey  = 3
)

// corruptErr builds a deserialization error wrapping ErrCorrupt, so every
// structural rejection — bad magic, truncation, implausible geometry — is
// matchable with errors.Is(err, ErrCorrupt) regardless of the detail text.
func corruptErr(format string, args ...any) error {
	return fmt.Errorf("ckks: %w: "+format, append([]any{ErrCorrupt}, args...)...)
}

type header struct {
	kind  uint64
	scale float64
	level int
	limbs int
	n     int
	isNTT bool
}

func putHeader(buf []byte, h header) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, serialMagic)
	buf = binary.LittleEndian.AppendUint64(buf, serialVersion)
	buf = binary.LittleEndian.AppendUint64(buf, h.kind)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.scale))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.level))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.limbs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.n))
	ntt := uint64(0)
	if h.isNTT {
		ntt = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, ntt)
	return buf
}

const headerWords = 8

func parseHeader(data []byte) (header, []byte, error) {
	if len(data) < headerWords*8 {
		return header{}, nil, corruptErr("serialized object truncated (%d bytes)", len(data))
	}
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(data[i*8:]) }
	if get(0) != serialMagic {
		return header{}, nil, corruptErr("bad magic %#x", get(0))
	}
	if get(1) != serialVersion {
		return header{}, nil, corruptErr("unsupported version %d", get(1))
	}
	h := header{
		kind:  get(2),
		scale: math.Float64frombits(get(3)),
		level: int(get(4)),
		limbs: int(get(5)),
		n:     int(get(6)),
		isNTT: get(7) == 1,
	}
	// Bound the geometry so hostile headers cannot trigger huge
	// allocations or integer overflow downstream.
	const maxN, maxLimbs = 1 << 20, 1 << 10
	if h.n < 1 || h.n > maxN || h.limbs < 1 || h.limbs > maxLimbs {
		return header{}, nil, corruptErr("implausible geometry n=%d limbs=%d", h.n, h.limbs)
	}
	if h.level < 0 || h.level >= maxLimbs {
		return header{}, nil, corruptErr("implausible level %d", h.level)
	}
	if math.IsNaN(h.scale) || math.IsInf(h.scale, 0) || h.scale <= 0 {
		return header{}, nil, corruptErr("invalid scale")
	}
	return h, data[headerWords*8:], nil
}

func putPoly(buf []byte, p *ring.Poly) []byte {
	for _, limb := range p.Coeffs {
		for _, v := range limb {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	return buf
}

func parsePoly(data []byte, limbs, n int, isNTT bool) (*ring.Poly, []byte, error) {
	need := limbs * n * 8
	if len(data) < need {
		return nil, nil, corruptErr("polynomial payload truncated")
	}
	backing := make([]uint64, limbs*n)
	p := &ring.Poly{Coeffs: make([][]uint64, limbs), IsNTT: isNTT}
	for i := 0; i < limbs; i++ {
		p.Coeffs[i] = backing[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			p.Coeffs[i][j] = binary.LittleEndian.Uint64(data[(i*n+j)*8:])
		}
	}
	return p, data[need:], nil
}

// MarshalBinary encodes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	limbs := len(ct.C0.Coeffs)
	n := len(ct.C0.Coeffs[0])
	buf := make([]byte, 0, headerWords*8+2*limbs*n*8)
	buf = putHeader(buf, header{
		kind: kindCiphertext, scale: ct.Scale, level: ct.Level,
		limbs: limbs, n: n, isNTT: ct.C0.IsNTT,
	})
	buf = putPoly(buf, ct.C0)
	buf = putPoly(buf, ct.C1)
	return buf, nil
}

// UnmarshalBinary decodes into ct, overwriting it and dropping its seal.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	h, rest, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.kind != kindCiphertext {
		return corruptErr("expected ciphertext, found kind %d", h.kind)
	}
	c0, rest, err := parsePoly(rest, h.limbs, h.n, h.isNTT)
	if err != nil {
		return err
	}
	c1, rest, err := parsePoly(rest, h.limbs, h.n, h.isNTT)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return corruptErr("%d trailing bytes", len(rest))
	}
	ct.C0, ct.C1, ct.Scale, ct.Level, ct.seal = c0, c1, h.scale, h.level, nil
	return nil
}

// MarshalBinary encodes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	limbs := len(pt.Value.Coeffs)
	n := len(pt.Value.Coeffs[0])
	buf := make([]byte, 0, headerWords*8+limbs*n*8)
	buf = putHeader(buf, header{
		kind: kindPlaintext, scale: pt.Scale, level: pt.Level,
		limbs: limbs, n: n, isNTT: pt.Value.IsNTT,
	})
	return putPoly(buf, pt.Value), nil
}

// UnmarshalBinary decodes into pt.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	h, rest, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.kind != kindPlaintext {
		return corruptErr("expected plaintext, found kind %d", h.kind)
	}
	v, rest, err := parsePoly(rest, h.limbs, h.n, h.isNTT)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return corruptErr("%d trailing bytes", len(rest))
	}
	pt.Value, pt.Scale, pt.Level = v, h.scale, h.level
	return nil
}

// MarshalBinary encodes the secret key (both basis parts).
func (sk *SecretKey) MarshalBinary() ([]byte, error) {
	limbsQ := len(sk.Value.Q.Coeffs)
	limbsP := len(sk.Value.P.Coeffs)
	n := len(sk.Value.Q.Coeffs[0])
	buf := make([]byte, 0, headerWords*8+8+(limbsQ+limbsP)*n*8)
	buf = putHeader(buf, header{
		kind: kindSecretKey, scale: 1, level: limbsQ - 1, limbs: limbsQ, n: n, isNTT: true,
	})
	buf = binary.LittleEndian.AppendUint64(buf, uint64(limbsP))
	buf = putPoly(buf, sk.Value.Q)
	buf = putPoly(buf, sk.Value.P)
	return buf, nil
}

// UnmarshalBinary decodes into sk.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	h, rest, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.kind != kindSecretKey {
		return corruptErr("expected secret key, found kind %d", h.kind)
	}
	if len(rest) < 8 {
		return corruptErr("secret key truncated")
	}
	limbsP := int(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	// limbsP rides outside the validated header, so it gets the same
	// plausibility bound: an attacker-chosen value must not be able to
	// overflow the size arithmetic in parsePoly or drive a huge make().
	if limbsP < 1 || limbsP > 1<<10 {
		return corruptErr("implausible secret key limbsP=%d", limbsP)
	}
	q, rest, err := parsePoly(rest, h.limbs, h.n, true)
	if err != nil {
		return err
	}
	p, rest, err := parsePoly(rest, limbsP, h.n, true)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return corruptErr("%d trailing bytes", len(rest))
	}
	sk.Value = PolyQP{Q: q, P: p}
	return nil
}
