package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"poseidon/internal/ckks"
)

func TestEvalRequestRoundTrip(t *testing.T) {
	cases := []*EvalRequest{
		{Tenant: "alice", Op: OpAdd, Ct: []byte{1, 2, 3}, Ct2: []byte{4, 5}},
		{Tenant: "bob-7", Op: OpRotate, Steps: -3, Ct: []byte{9}},
		{Tenant: "t.x_Y", Op: OpInnerSum, Width: 8, Ct: bytes.Repeat([]byte{7}, 100)},
		{Tenant: "c", Op: OpRescale, Ct: []byte{0}},
	}
	for _, want := range cases {
		got, err := DecodeEvalRequest(EncodeEvalRequest(want))
		if err != nil {
			t.Fatalf("%s: %v", want.Op, err)
		}
		if got.Tenant != want.Tenant || got.Op != want.Op || got.Steps != want.Steps ||
			got.Width != want.Width || !bytes.Equal(got.Ct, want.Ct) || !bytes.Equal(got.Ct2, want.Ct2) {
			t.Fatalf("%s: round trip mismatch: %+v != %+v", want.Op, got, want)
		}
	}
}

func TestKeyUploadRoundTrip(t *testing.T) {
	want := &KeyUpload{Tenant: "alice", Relin: []byte{1, 2}, Rotations: []byte{3}}
	got, err := DecodeKeyUpload(EncodeKeyUpload(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != want.Tenant || !bytes.Equal(got.Relin, want.Relin) || !bytes.Equal(got.Rotations, want.Rotations) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, want)
	}
}

// Every structural defect must be rejected with ErrBadRequest — and never
// a panic. The table walks the failure modes one field at a time.
func TestDecodeEvalRequestRejects(t *testing.T) {
	valid := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpAdd, Ct: []byte{1}, Ct2: []byte{2}})
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", mut(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"bad version", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 99); return b })},
		{"wrong kind", EncodeKeyUpload(&KeyUpload{Tenant: "a", Relin: []byte{1}})},
		{"bad opcode", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 99); return b })},
		{"huge steps", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], 1<<40); return b })},
		{"huge width", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[40:], 1<<40); return b })},
		{"truncated header", valid[:20]},
		{"truncated blob", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"tenant length lies", mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[48:], 1<<30); return b })},
		{"bad tenant charset", EncodeEvalRequest(&EvalRequest{Tenant: "a/b", Op: OpAdd, Ct: []byte{1}, Ct2: []byte{2}})},
		{"empty tenant", EncodeEvalRequest(&EvalRequest{Tenant: "", Op: OpAdd, Ct: []byte{1}, Ct2: []byte{2}})},
		{"missing ct", EncodeEvalRequest(&EvalRequest{Tenant: "a", Op: OpAdd, Ct2: []byte{2}})},
		{"missing ct2 for add", EncodeEvalRequest(&EvalRequest{Tenant: "a", Op: OpAdd, Ct: []byte{1}})},
		{"stray ct2 for rotate", EncodeEvalRequest(&EvalRequest{Tenant: "a", Op: OpRotate, Ct: []byte{1}, Ct2: []byte{2}})},
		{"zero-width innersum", EncodeEvalRequest(&EvalRequest{Tenant: "a", Op: OpInnerSum, Ct: []byte{1}})},
	}
	for _, tc := range cases {
		if _, err := DecodeEvalRequest(tc.data); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
	}
}

func TestDecodeKeyUploadRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong kind", EncodeEvalRequest(&EvalRequest{Tenant: "a", Op: OpRescale, Ct: []byte{1}})},
		{"no keys", EncodeKeyUpload(&KeyUpload{Tenant: "a"})},
		{"bad tenant", EncodeKeyUpload(&KeyUpload{Tenant: "a b", Relin: []byte{1}})},
	}
	for _, tc := range cases {
		if _, err := DecodeKeyUpload(tc.data); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
	}
}

func TestParseOp(t *testing.T) {
	for op := OpAdd; op < opEnd; op++ {
		back, err := ParseOp(op.String())
		if err != nil || back != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), back, err)
		}
	}
	if _, err := ParseOp("transmogrify"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op name: %v", err)
	}
}

// FuzzServeRequest drives arbitrary bytes — seeded with valid and mutated
// envelopes — through both request decoders: errors always, panics never,
// and anything that decodes must re-encode to an equivalent request.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpAdd, Ct: []byte{1, 2}, Ct2: []byte{3}}))
	f.Add(EncodeEvalRequest(&EvalRequest{Tenant: "bob", Op: OpRotate, Steps: -5, Ct: bytes.Repeat([]byte{9}, 64)}))
	f.Add(EncodeEvalRequest(&EvalRequest{Tenant: "t", Op: OpInnerSum, Width: 4, Ct: []byte{1}}))
	f.Add(EncodeKeyUpload(&KeyUpload{Tenant: "carol", Relin: []byte{7, 7}, Rotations: []byte{8}}))
	// Mutated valid envelopes: flipped kind, truncations, appended junk.
	valid := EncodeEvalRequest(&EvalRequest{Tenant: "dave", Op: OpMulRelin, Ct: []byte{1}, Ct2: []byte{2}})
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	flip := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(flip[16:], kindKeys)
	f.Add(flip)

	// Envelopes that decode to a ciphertext or key with one word that is not
	// a canonical residue: the server must refuse them at ingest.
	params := newServeParams(f, 1)
	srv, err := NewEvalServer(Config{Params: params})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	tt := newTestTenant(f, params, "erin", 3, []int{1}, false)
	ctBytes := tt.encryptBytes(f, randomVec(rand.New(rand.NewSource(4)), params.Slots))
	for _, fn := range nonCanonical {
		for _, limb := range []int{0, 2} {
			q := params.RingQ.Moduli[limb].Q
			bump := func(row []uint64) { row[5] = fn(row[5], q) }
			f.Add(EncodeEvalRequest(&EvalRequest{Tenant: "erin", Op: OpNegate,
				Ct: edited(f, ctBytes, func(ct *ckks.Ciphertext) { bump(ct.C0.Coeffs[limb]) })}))
			f.Add(EncodeKeyUpload(&KeyUpload{Tenant: "erin", Rotations: tt.rtkBytes,
				Relin: edited(f, tt.rlkBytes, func(k *ckks.RelinearizationKey) { bump(k.A[1].Q.Coeffs[limb]) })}))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeEvalRequest(data); err == nil {
			for _, b := range [][]byte{req.Ct, req.Ct2} {
				if ct, err := srv.parseOperand("operand", b); err == nil {
					if !canonicalRows(ct.C0.Coeffs[:ct.Level+1], params.RingQ.Moduli) || !canonicalRows(ct.C1.Coeffs[:ct.Level+1], params.RingQ.Moduli) {
						t.Fatal("ingest accepted a ciphertext word that is not a canonical residue")
					}
				}
			}
			again, err := DecodeEvalRequest(EncodeEvalRequest(req))
			if err != nil {
				t.Fatalf("re-encode of decoded request rejected: %v", err)
			}
			if again.Tenant != req.Tenant || again.Op != req.Op || again.Steps != req.Steps || again.Width != req.Width {
				t.Fatal("re-encode round trip mismatch")
			}
		} else if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("eval decode error %v does not wrap ErrBadRequest", err)
		}
		if u, err := DecodeKeyUpload(data); err == nil {
			if _, err := DecodeKeyUpload(EncodeKeyUpload(u)); err != nil {
				t.Fatalf("re-encode of decoded upload rejected: %v", err)
			}
			if srv.RegisterKeys(u) == nil {
				var keys []*ckks.SwitchingKey
				if rlk := new(ckks.RelinearizationKey); len(u.Relin) > 0 && rlk.UnmarshalBinary(u.Relin) == nil {
					keys = append(keys, &rlk.SwitchingKey)
				}
				if rtk := new(ckks.RotationKeySet); len(u.Rotations) > 0 && rtk.UnmarshalBinary(u.Rotations) == nil {
					for _, k := range rtk.Keys {
						keys = append(keys, k)
					}
				}
				for _, k := range keys {
					for d := range k.B {
						for _, c := range []ckks.PolyQP{k.B[d], k.A[d]} {
							if !canonicalRows(c.Q.Coeffs, params.RingQ.Moduli) || !canonicalRows(c.P.Coeffs, params.RingP.Moduli) {
								t.Fatal("RegisterKeys accepted a key word that is not a canonical residue")
							}
						}
					}
				}
			}
		} else if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("key decode error %v does not wrap ErrBadRequest", err)
		}
	})
}
