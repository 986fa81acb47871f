// Package server is the FHE-as-a-service layer of the Poseidon
// reproduction: an HTTP evaluation API over the hardened ckks
// deserializers, a refcounted per-tenant key registry, and a request
// scheduler with one dispatch lane per evaluator worker — the software
// analogue of the paper's lanes that are never idle: many interleaved
// request streams over a fixed set of execution resources, with the
// expensive shared phase of hoisted rotations amortized across the queued
// rotations of one ciphertext.
//
// Endpoints:
//
//	POST /v1/keys    register a tenant's evaluation keys (binary envelope)
//	POST /v1/eval    evaluate one operation (binary envelope in, ciphertext out)
//	GET  /v1/health  queue depth and serving counters (JSON)
//	GET  /metrics    Prometheus exposition (when a telemetry collector is attached)
//
// One answer to a fault, one to overload, and no mode state: an integrity
// failure runs again (op-level recovery, then the whole job on its lane),
// and a full queue or live arena bytes over their ceiling is refused with
// 503 + Retry-After for the client to resend.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Sentinel errors of the serving layer. Wire and admission failures wrap
// these; scheme-level failures keep their ckks sentinels (ErrCorrupt,
// ErrKeyMissing, ErrIntegrity, …) so one errors.Is dispatch covers both.
var (
	// ErrBadRequest reports a request envelope that fails structural
	// validation: bad magic, truncation, an unknown opcode, an implausible
	// field. The decoder returns it for every malformed input and never
	// panics (see FuzzServeRequest).
	ErrBadRequest = errors.New("malformed request envelope")

	// ErrUnknownTenant reports an evaluation request for a tenant with no
	// registered keys — possibly evicted from the registry; the client
	// re-uploads and retries.
	ErrUnknownTenant = errors.New("unknown tenant")

	// ErrOverloaded reports admission-control rejection: a full queue, arena
	// bytes over their ceiling, or a server shutting down. Responses carry
	// Retry-After.
	ErrOverloaded = errors.New("server overloaded")
)

// The request envelope is little-endian binary, mirroring the ciphertext
// wire format (internal/ckks/serialize.go): a magic/version/kind prefix,
// fixed scalar fields, then length-prefixed blobs. Binary rather than
// JSON+base64 keeps the wire cost of a 100 KB ciphertext at a memcpy, so
// serving throughput measures the scheduler, not an encoder.
//
// Eval envelope layout (uint64 little-endian unless noted):
//
//	magic | version | kind=1 | op | steps(int64) | width |
//	tenantLen | tenant… | ct1Len | ct1… | ct2Len | ct2…
//
// Key-upload envelope layout:
//
//	magic | version | kind=2 | tenantLen | tenant… |
//	relinLen | relin… | rotLen | rot…
const (
	envMagic   = 0x3156525345534f50 // "POSESRV1"
	envVersion = 1

	kindEval = 1
	kindKeys = 2

	// maxTenantLen bounds tenant identifiers; maxBlobLen bounds any single
	// length-prefixed payload so hostile envelopes cannot drive huge
	// allocations (the HTTP body cap bounds the total independently).
	maxTenantLen = 64
	maxBlobLen   = 1 << 31

	// maxSteps / maxWidth bound the rotation distance and inner-sum width
	// fields; parameter-dependent validation (width ≤ slot count) happens
	// at admission, where the parameter set is known.
	maxSteps = 1 << 20
	maxWidth = 1 << 20
)

// Op enumerates the operations the evaluation endpoint serves.
type Op uint64

const (
	OpAdd Op = iota + 1
	OpSub
	OpMulRelin
	OpRescale
	OpRotate
	OpConjugate
	OpInnerSum
	OpNegate
	opEnd // sentinel: first invalid opcode
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMulRelin: "mulrelin", OpRescale: "rescale",
	OpRotate: "rotate", OpConjugate: "conjugate", OpInnerSum: "innersum", OpNegate: "negate",
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint64(op))
}

// ParseOp maps an operation name back to its opcode.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return 0, badf("unknown operation %q", s)
}

// twoOperand reports whether the op consumes a second ciphertext.
func (op Op) twoOperand() bool { return op == OpAdd || op == OpSub || op == OpMulRelin }

// EvalRequest is one decoded evaluation request. Ciphertexts stay as raw
// serialized bytes here: the handler deserializes them against the
// server's parameter set, and the scheduler compares the Ct bytes of queued
// rotations to find the ones it can run through one hoisted decomposition.
type EvalRequest struct {
	Tenant string
	Op     Op
	Steps  int // rotation distance (OpRotate)
	Width  int // inner-sum width (OpInnerSum)
	Ct     []byte
	Ct2    []byte // second operand for add/sub/mulrelin
}

// KeyUpload is one decoded key-registration request. Either key may be
// absent (zero-length): a tenant serving only additions needs neither.
type KeyUpload struct {
	Tenant    string
	Relin     []byte // serialized RelinearizationKey, optional
	Rotations []byte // serialized RotationKeySet, optional
}

// badf builds a structural-rejection error wrapping ErrBadRequest.
func badf(format string, args ...any) error {
	return fmt.Errorf("server: %w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// cursor is a bounds-checked little-endian reader over an envelope.
type cursor struct{ data []byte }

func (c *cursor) u64(what string) (uint64, error) {
	if len(c.data) < 8 {
		return 0, badf("%s truncated", what)
	}
	v := binary.LittleEndian.Uint64(c.data)
	c.data = c.data[8:]
	return v, nil
}

// blob reads a length-prefixed byte field. The returned slice aliases the
// envelope buffer.
func (c *cursor) blob(what string, max uint64) ([]byte, error) {
	n, err := c.u64(what + " length")
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, badf("%s length %d exceeds cap %d", what, n, max)
	}
	if uint64(len(c.data)) < n {
		return nil, badf("%s payload truncated", what)
	}
	b := c.data[:n]
	c.data = c.data[n:]
	return b, nil
}

// validTenant enforces the tenant-identifier grammar: 1–64 characters of
// [A-Za-z0-9._-]. Identifiers appear in logs and metric labels, so the
// charset is restrictive by design.
func validTenant(s string) error {
	if len(s) == 0 || len(s) > maxTenantLen {
		return badf("tenant name length %d outside [1, %d]", len(s), maxTenantLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return badf("tenant name contains invalid byte %#x", c)
		}
	}
	return nil
}

// parsePrefix checks magic/version and returns the envelope kind.
func parsePrefix(c *cursor) (uint64, error) {
	magic, err := c.u64("magic")
	if err != nil {
		return 0, err
	}
	if magic != envMagic {
		return 0, badf("bad magic %#x", magic)
	}
	version, err := c.u64("version")
	if err != nil {
		return 0, err
	}
	if version != envVersion {
		return 0, badf("unsupported version %d", version)
	}
	return c.u64("kind")
}

// DecodeEvalRequest parses an evaluation envelope. Every structural
// failure returns an error wrapping ErrBadRequest; the decoder never
// panics on arbitrary input. Blob fields alias data.
func DecodeEvalRequest(data []byte) (*EvalRequest, error) {
	c := &cursor{data: data}
	kind, err := parsePrefix(c)
	if err != nil {
		return nil, err
	}
	if kind != kindEval {
		return nil, badf("expected eval envelope, found kind %d", kind)
	}
	opw, err := c.u64("op")
	if err != nil {
		return nil, err
	}
	op := Op(opw)
	if op < OpAdd || op >= opEnd {
		return nil, badf("unknown opcode %d", opw)
	}
	stepsw, err := c.u64("steps")
	if err != nil {
		return nil, err
	}
	steps := int(int64(stepsw))
	if steps < -maxSteps || steps > maxSteps {
		return nil, badf("rotation steps %d outside ±%d", steps, maxSteps)
	}
	widthw, err := c.u64("width")
	if err != nil {
		return nil, err
	}
	if widthw > maxWidth {
		return nil, badf("inner-sum width %d exceeds %d", widthw, maxWidth)
	}
	tenant, err := c.blob("tenant", maxTenantLen)
	if err != nil {
		return nil, err
	}
	if err := validTenant(string(tenant)); err != nil {
		return nil, err
	}
	ct, err := c.blob("ciphertext", maxBlobLen)
	if err != nil {
		return nil, err
	}
	if len(ct) == 0 {
		return nil, badf("missing ciphertext operand")
	}
	ct2, err := c.blob("second ciphertext", maxBlobLen)
	if err != nil {
		return nil, err
	}
	if op.twoOperand() && len(ct2) == 0 {
		return nil, badf("%s requires a second ciphertext operand", op)
	}
	if !op.twoOperand() && len(ct2) != 0 {
		return nil, badf("%s takes a single ciphertext operand", op)
	}
	if op == OpInnerSum && widthw == 0 {
		return nil, badf("innersum requires a width")
	}
	if len(c.data) != 0 {
		return nil, badf("%d trailing bytes", len(c.data))
	}
	return &EvalRequest{
		Tenant: string(tenant),
		Op:     op,
		Steps:  steps,
		Width:  int(widthw),
		Ct:     ct,
		Ct2:    ct2,
	}, nil
}

// EncodeEvalRequest renders the envelope for an evaluation request.
func EncodeEvalRequest(r *EvalRequest) []byte {
	buf := make([]byte, 0, 6*8+len(r.Tenant)+3*8+len(r.Ct)+len(r.Ct2))
	buf = binary.LittleEndian.AppendUint64(buf, envMagic)
	buf = binary.LittleEndian.AppendUint64(buf, envVersion)
	buf = binary.LittleEndian.AppendUint64(buf, kindEval)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.Steps)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Width))
	buf = appendBlob(buf, []byte(r.Tenant))
	buf = appendBlob(buf, r.Ct)
	buf = appendBlob(buf, r.Ct2)
	return buf
}

// DecodeKeyUpload parses a key-registration envelope with the same error
// contract as DecodeEvalRequest.
func DecodeKeyUpload(data []byte) (*KeyUpload, error) {
	c := &cursor{data: data}
	kind, err := parsePrefix(c)
	if err != nil {
		return nil, err
	}
	if kind != kindKeys {
		return nil, badf("expected key envelope, found kind %d", kind)
	}
	tenant, err := c.blob("tenant", maxTenantLen)
	if err != nil {
		return nil, err
	}
	if err := validTenant(string(tenant)); err != nil {
		return nil, err
	}
	relin, err := c.blob("relinearization key", maxBlobLen)
	if err != nil {
		return nil, err
	}
	rot, err := c.blob("rotation key set", maxBlobLen)
	if err != nil {
		return nil, err
	}
	if len(relin) == 0 && len(rot) == 0 {
		return nil, badf("key upload carries no keys")
	}
	if len(c.data) != 0 {
		return nil, badf("%d trailing bytes", len(c.data))
	}
	return &KeyUpload{Tenant: string(tenant), Relin: relin, Rotations: rot}, nil
}

// EncodeKeyUpload renders the envelope for a key registration.
func EncodeKeyUpload(u *KeyUpload) []byte {
	buf := make([]byte, 0, 3*8+3*8+len(u.Tenant)+len(u.Relin)+len(u.Rotations))
	buf = binary.LittleEndian.AppendUint64(buf, envMagic)
	buf = binary.LittleEndian.AppendUint64(buf, envVersion)
	buf = binary.LittleEndian.AppendUint64(buf, kindKeys)
	buf = appendBlob(buf, []byte(u.Tenant))
	buf = appendBlob(buf, u.Relin)
	buf = appendBlob(buf, u.Rotations)
	return buf
}

func appendBlob(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}
