package server

import (
	"bytes"
	"encoding"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"
	"testing"

	"poseidon/internal/ckks"
	"poseidon/internal/numeric"
)

// newServeParams builds the small parameter set the serving tests share:
// LogN 8 keeps keygen and per-op cost low so the soak test can push
// thousands of requests under -race.
func newServeParams(t testing.TB, workers int) *ckks.Parameters {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// testTenant is one tenant's client-side crypto state: its own secret key,
// the serialized public evaluation keys it uploads, and the encrypt /
// decrypt endpoints the server never sees.
type testTenant struct {
	name     string
	params   *ckks.Parameters
	enc      *ckks.Encoder
	encr     *ckks.Encryptor
	decr     *ckks.Decryptor
	rlkBytes []byte
	rtkBytes []byte
}

// newTestTenant generates a tenant keyed for the given rotation steps.
func newTestTenant(t testing.TB, params *ckks.Parameters, name string, seed int64, steps []int, conjugate bool) *testTenant {
	t.Helper()
	kgen := ckks.NewKeyGenerator(params, seed)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	rtks := kgen.GenRotationKeys(sk, steps, conjugate)
	rlkBytes, err := rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rtkBytes, err := rtks.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return &testTenant{
		name:     name,
		params:   params,
		enc:      ckks.NewEncoder(params),
		encr:     ckks.NewEncryptor(params, pk, seed+1),
		decr:     ckks.NewDecryptor(params, sk),
		rlkBytes: rlkBytes,
		rtkBytes: rtkBytes,
	}
}

// upload registers the tenant's keys with the server in-process.
func (tt *testTenant) upload(t testing.TB, s *EvalServer) {
	t.Helper()
	if err := s.RegisterKeys(&KeyUpload{Tenant: tt.name, Relin: tt.rlkBytes, Rotations: tt.rtkBytes}); err != nil {
		t.Fatalf("tenant %s: RegisterKeys: %v", tt.name, err)
	}
}

// encryptBytes encrypts z at the top level and serializes the ciphertext.
func (tt *testTenant) encryptBytes(t testing.TB, z []complex128) []byte {
	t.Helper()
	return tt.encryptBytesScale(t, z, tt.params.Scale)
}

// encryptBytesScale encrypts at an explicit scale — scale² mimics a
// post-multiplication ciphertext, the legitimate input to OpRescale.
func (tt *testTenant) encryptBytesScale(t testing.TB, z []complex128, scale float64) []byte {
	t.Helper()
	pt := tt.enc.Encode(z, tt.params.MaxLevel(), scale)
	b, err := tt.encr.Encrypt(pt).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decrypt decodes a result ciphertext back to slots.
func (tt *testTenant) decrypt(ct *ckks.Ciphertext) []complex128 {
	return tt.enc.Decode(tt.decr.Decrypt(ct))
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return z
}

// maxErr returns the worst slot-wise distance, or +Inf on length mismatch.
func maxErr(got, want []complex128) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func assertVecClose(t testing.TB, got, want []complex128, tol float64, msg string) {
	t.Helper()
	if worst := maxErr(got, want); worst > tol {
		t.Fatalf("%s: max error %g > %g", msg, worst, tol)
	}
}

// expected computes the plaintext-side result for an op, mirroring the
// evaluator's slot semantics.
func expected(op Op, a, b []complex128, steps, width int) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case OpMulRelin:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case OpRescale:
		copy(out, a)
	case OpRotate:
		for i := range out {
			out[i] = a[((i+steps)%n+n)%n]
		}
	case OpConjugate:
		for i := range out {
			out[i] = cmplx.Conj(a[i])
		}
	case OpNegate:
		for i := range out {
			out[i] = -a[i]
		}
	case OpInnerSum:
		// The evaluator's log-step ladder sums width consecutive slots
		// (width a power of two) with rotating wraparound.
		copy(out, a)
		for st := 1; st < width; st <<= 1 {
			next := make([]complex128, n)
			for i := range next {
				next[i] = out[i] + out[(i+st)%n]
			}
			out = next
		}
	}
	return out
}

// coeffDomainBytes re-encodes a serialized ciphertext with its polys moved
// out of the NTT domain: well-formed bytes the evaluator must refuse.
func coeffDomainBytes(t testing.TB, params *ckks.Parameters, b []byte) []byte {
	t.Helper()
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	params.RingQ.INTT(ct.C0)
	params.RingQ.INTT(ct.C1)
	out, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// nonCanonical are the words a boundary check must refuse in place of a
// residue w of q: one and two q above it (the second still fits the 52 bits
// the IFMA52 lanes read) and the widest word.
var nonCanonical = map[string]func(w, q uint64) uint64{
	"w+q":    func(w, q uint64) uint64 { return w + q },
	"w+2q":   func(w, q uint64) uint64 { return w + 2*q },
	"2^64-1": func(uint64, uint64) uint64 { return math.MaxUint64 },
}

// wireValue is a type with a binary form: a ciphertext or key set.
type wireValue[E any] interface {
	*E
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// edited decodes b, applies edit to the value and encodes it again — how a
// test builds bytes that decode but carry a word no client should send.
func edited[E any, T wireValue[E]](t testing.TB, b []byte, edit func(T)) []byte {
	t.Helper()
	v := T(new(E))
	if err := v.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	edit(v)
	out, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// canonicalRows reports whether every word of rows[i] is below moduli[i].
func canonicalRows(rows [][]uint64, moduli []numeric.Modulus) bool {
	for i, row := range rows {
		for _, w := range row {
			if w >= moduli[i].Q {
				return false
			}
		}
	}
	return true
}

// A two-operand request whose Ct2 bytes equal its Ct (a squaring, a
// doubling) is parsed and sealed once — the job's two operands are one
// ciphertext — and answers bit-identically to the evaluator on two
// separately parsed copies of the bytes. A request whose operands differ
// still parses two ciphertexts and seals both: a bit flipped in the second
// while the job waits for its lane is ErrIntegrity. Either operand outside
// the NTT domain is a bad request, refused before it is sealed.
func TestSharedOperandParsedOnce(t *testing.T) {
	params := newServeParams(t, 1)
	srv, err := NewEvalServer(Config{Params: params, GuardSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	tt := newTestTenant(t, params, "alice", 31, nil, false)
	tt.upload(t, srv)
	rlk := new(ckks.RelinearizationKey)
	if err := rlk.UnmarshalBinary(tt.rlkBytes); err != nil {
		t.Fatal(err)
	}
	ref := ckks.NewEvaluator(params, rlk, nil)

	var shared atomic.Bool
	srv.sched.testExec = func(j *job) error {
		shared.Store(j.ct2 == j.ct)
		return nil
	}
	rng := rand.New(rand.NewSource(32))
	ctBytes := tt.encryptBytes(t, randomVec(rng, params.Slots))
	for _, op := range []Op{OpMulRelin, OpAdd} {
		got, _, err := srv.Eval(&EvalRequest{Tenant: "alice", Op: op, Ct: ctBytes, Ct2: ctBytes})
		if err != nil {
			t.Fatalf("%s(ct, ct): %v", op, err)
		}
		if !shared.Load() {
			t.Errorf("%s(ct, ct): the repeated operand was parsed twice", op)
		}
		x, y := new(ckks.Ciphertext), new(ckks.Ciphertext)
		if err := x.UnmarshalBinary(ctBytes); err != nil {
			t.Fatal(err)
		}
		if err := y.UnmarshalBinary(ctBytes); err != nil {
			t.Fatal(err)
		}
		want := ref.Add(x, y)
		if op == OpMulRelin {
			want = ref.MulRelin(x, y)
		}
		gotBytes, _ := got.MarshalBinary()
		wantBytes, _ := want.MarshalBinary()
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s(ct, ct): answer differs from the evaluator on two parsed copies", op)
		}
	}

	other := tt.encryptBytes(t, randomVec(rng, params.Slots))
	var flipped atomic.Bool
	srv.sched.testExec = func(j *job) error {
		shared.Store(j.ct2 == j.ct)
		if !flipped.Swap(true) {
			j.ct2.C1.Coeffs[0][0] ^= 1
		}
		return nil
	}
	if _, _, err := srv.Eval(&EvalRequest{Tenant: "alice", Op: OpMulRelin, Ct: ctBytes, Ct2: other}); !errors.Is(err, ckks.ErrIntegrity) {
		t.Errorf("second operand corrupted after ingest: %v, want ErrIntegrity (a sealed second operand)", err)
	}
	if shared.Load() {
		t.Error("distinct operands were parsed as one ciphertext")
	}

	srv.sched.testExec = nil
	coeff := coeffDomainBytes(t, params, ctBytes)
	for _, req := range []*EvalRequest{
		{Tenant: "alice", Op: OpNegate, Ct: coeff},
		{Tenant: "alice", Op: OpAdd, Ct: coeff, Ct2: coeff},
		{Tenant: "alice", Op: OpAdd, Ct: ctBytes, Ct2: coeff},
	} {
		if _, _, err := srv.Eval(req); !errors.Is(err, ErrBadRequest) || !errors.Is(err, ckks.ErrInvalidInput) {
			t.Errorf("%s with a coefficient-domain operand: %v, want ErrBadRequest wrapping ErrInvalidInput", req.Op, err)
		}
	}
}
