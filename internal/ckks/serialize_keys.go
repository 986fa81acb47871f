package ckks

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Serialization for evaluation-key material. Switching keys are the bulk of
// any deployment's key payload (the paper streams them from HBM on every
// keyswitch), so the wire format mirrors that layout: per digit, the two
// key components over Q then P.

const (
	kindSwitchingKey   = 4
	kindRotationKeySet = 5
)

// MarshalBinary encodes the switching key (all digits, both components).
func (swk *SwitchingKey) MarshalBinary() ([]byte, error) {
	if len(swk.B) == 0 {
		return nil, fmt.Errorf("ckks: MarshalBinary: empty switching key")
	}
	limbsQ := len(swk.B[0].Q.Coeffs)
	limbsP := len(swk.B[0].P.Coeffs)
	n := len(swk.B[0].Q.Coeffs[0])
	digits := len(swk.B)

	buf := make([]byte, 0, headerWords*8+16+digits*2*(limbsQ+limbsP)*n*8)
	buf = putHeader(buf, header{
		kind: kindSwitchingKey, scale: 1, level: limbsQ - 1, limbs: limbsQ, n: n, isNTT: true,
	})
	buf = binary.LittleEndian.AppendUint64(buf, uint64(digits))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(limbsP))
	for d := 0; d < digits; d++ {
		buf = putPoly(buf, swk.B[d].Q)
		buf = putPoly(buf, swk.B[d].P)
		buf = putPoly(buf, swk.A[d].Q)
		buf = putPoly(buf, swk.A[d].P)
	}
	return buf, nil
}

// UnmarshalBinary decodes into swk.
func (swk *SwitchingKey) UnmarshalBinary(data []byte) error {
	h, rest, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.kind != kindSwitchingKey {
		return corruptErr("expected switching key, found kind %d", h.kind)
	}
	if len(rest) < 16 {
		return corruptErr("switching key truncated")
	}
	digits := int(binary.LittleEndian.Uint64(rest))
	limbsP := int(binary.LittleEndian.Uint64(rest[8:]))
	rest = rest[16:]
	if digits < 1 || digits > 1<<10 || limbsP < 1 || limbsP > 1<<10 {
		return corruptErr("implausible key geometry digits=%d limbsP=%d", digits, limbsP)
	}
	swk.B = make([]PolyQP, digits)
	swk.A = make([]PolyQP, digits)
	for d := 0; d < digits; d++ {
		bq, r1, err := parsePoly(rest, h.limbs, h.n, true)
		if err != nil {
			return err
		}
		bp, r2, err := parsePoly(r1, limbsP, h.n, true)
		if err != nil {
			return err
		}
		aq, r3, err := parsePoly(r2, h.limbs, h.n, true)
		if err != nil {
			return err
		}
		ap, r4, err := parsePoly(r3, limbsP, h.n, true)
		if err != nil {
			return err
		}
		swk.B[d] = PolyQP{Q: bq, P: bp}
		swk.A[d] = PolyQP{Q: aq, P: ap}
		rest = r4
	}
	if len(rest) != 0 {
		return corruptErr("%d trailing bytes", len(rest))
	}
	return nil
}

// MarshalBinary encodes the relinearization key.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	return rlk.SwitchingKey.MarshalBinary()
}

// UnmarshalBinary decodes the relinearization key.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	return rlk.SwitchingKey.UnmarshalBinary(data)
}

// MarshalBinary encodes the rotation key set: a count followed by
// (galois element, switching key) pairs in ascending Galois-element order,
// so one set always marshals to the same bytes.
func (set *RotationKeySet) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0)
	buf = binary.LittleEndian.AppendUint64(buf, serialMagic)
	buf = binary.LittleEndian.AppendUint64(buf, serialVersion)
	buf = binary.LittleEndian.AppendUint64(buf, kindRotationKeySet)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(set.Keys)))
	gs := make([]uint64, 0, len(set.Keys))
	for g := range set.Keys {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	for _, g := range gs {
		kb, err := set.Keys[g].MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, g)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(kb)))
		buf = append(buf, kb...)
	}
	return buf, nil
}

// UnmarshalBinary decodes into set.
func (set *RotationKeySet) UnmarshalBinary(data []byte) error {
	if len(data) < 32 {
		return corruptErr("rotation key set truncated")
	}
	if binary.LittleEndian.Uint64(data) != serialMagic {
		return corruptErr("bad magic")
	}
	if binary.LittleEndian.Uint64(data[8:]) != serialVersion {
		return corruptErr("unsupported version")
	}
	if binary.LittleEndian.Uint64(data[16:]) != kindRotationKeySet {
		return corruptErr("expected rotation key set")
	}
	count := binary.LittleEndian.Uint64(data[24:])
	if count > 1<<16 {
		return corruptErr("implausible key count %d", count)
	}
	rest := data[32:]
	set.Keys = make(map[uint64]*SwitchingKey, count)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 16 {
			return corruptErr("rotation key %d truncated", i)
		}
		g := binary.LittleEndian.Uint64(rest)
		size := binary.LittleEndian.Uint64(rest[8:])
		rest = rest[16:]
		if uint64(len(rest)) < size {
			return corruptErr("rotation key %d payload truncated", i)
		}
		var swk SwitchingKey
		if err := swk.UnmarshalBinary(rest[:size]); err != nil {
			return fmt.Errorf("ckks: rotation key %d: %w", i, err)
		}
		set.Keys[g] = &swk
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return corruptErr("%d trailing bytes", len(rest))
	}
	return nil
}
