// Package tracing provides request-scoped span trees for the Poseidon
// serving stack: a 128-bit trace context that enters at HTTP ingest (the
// X-Poseidon-Trace header), rides context.Context through admission,
// queueing, batch formation and dispatch, and fans into the evaluator via
// the ckks observer plumbing so per-op and LinTrans phase timings attach
// to the request that caused them. Completed trees land in a fixed-size
// lock-free flight recorder with tail-sampling (see recorder.go) and are
// exported as an HTML/JSON debug page, Chrome trace_event JSON, and
// Prometheus exemplars.
//
// Every entry point is nil-receiver safe: a disabled tracer hands out nil
// *RequestTrace values and every method on them is a cheap nil check, so
// call sites on the evaluator hot path stay zero-allocation when tracing
// is off (the root package's TestZeroAllocChainObserved enforces exactly 0).
package tracing

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Header is the HTTP header carrying the trace context: 32 lowercase hex
// digits of trace ID, optionally followed by "-" and 16 hex digits of the
// caller's span ID. The server generates a context when the header is
// absent and always echoes the trace ID in the response.
const Header = "X-Poseidon-Trace"

// TraceID is a 128-bit request identifier, random per request.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return fmt.Sprintf("%016x%016x", t.Hi, t.Lo) }

// Context is the propagated trace context: the request's trace ID plus
// the caller's span ID (zero when the caller did not start a span, e.g. a
// curl invocation minting a bare trace ID).
type Context struct {
	Trace TraceID
	Span  uint64
}

// Valid reports whether the context carries a usable trace ID.
func (c Context) Valid() bool { return !c.Trace.IsZero() }

// Header renders the context in X-Poseidon-Trace wire form.
func (c Context) Header() string {
	if c.Span == 0 {
		return c.Trace.String()
	}
	return fmt.Sprintf("%016x%016x-%016x", c.Trace.Hi, c.Trace.Lo, c.Span)
}

// ErrBadHeader is wrapped by ParseHeader failures.
var ErrBadHeader = errors.New("tracing: malformed trace header")

// ParseHeader parses an X-Poseidon-Trace value. Accepted forms:
// "<32 hex>" and "<32 hex>-<16 hex>"; hex digits may be either case.
func ParseHeader(s string) (Context, error) {
	var c Context
	if len(s) != 32 && len(s) != 49 {
		return c, fmt.Errorf("%w: length %d (want 32 or 49)", ErrBadHeader, len(s))
	}
	hi, ok1 := parseHex16(s[:16])
	lo, ok2 := parseHex16(s[16:32])
	if !ok1 || !ok2 {
		return c, fmt.Errorf("%w: non-hex trace id", ErrBadHeader)
	}
	c.Trace = TraceID{Hi: hi, Lo: lo}
	if len(s) == 49 {
		if s[32] != '-' {
			return c, fmt.Errorf("%w: missing span separator", ErrBadHeader)
		}
		span, ok := parseHex16(s[33:])
		if !ok {
			return c, fmt.Errorf("%w: non-hex span id", ErrBadHeader)
		}
		c.Span = span
	}
	if c.Trace.IsZero() {
		return Context{}, fmt.Errorf("%w: zero trace id", ErrBadHeader)
	}
	return c, nil
}

func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// ID generation: a crypto-seeded base walked by an atomic counter and
// finalized with splitmix64 — unique across the process, no lock, no
// allocation, and no syscall per ID.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(0x9e3779b97f4a7c15) // degraded but functional: counter-only IDs
	}
}

func nextID() uint64 {
	for {
		z := idState.Add(1)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// NewContext mints a fresh context with a random 128-bit trace ID and no
// caller span.
func NewContext() Context {
	return Context{Trace: TraceID{Hi: nextID(), Lo: nextID()}}
}

// Tracer owns the flight recorder finished request traces are offered to.
// A nil *Tracer disables tracing: NewRequest returns a nil *RequestTrace
// and every downstream call degrades to a nil check.
type Tracer struct {
	Recorder *FlightRecorder
}

// NewRequest starts a request trace rooted at a span named name. Returns
// nil (tracing disabled) when the tracer is nil.
func (t *Tracer) NewRequest(tc Context, name string) *RequestTrace {
	if t == nil {
		return nil
	}
	return NewRequest(tc, name)
}

// Offer finishes the hand-off of a completed trace to the flight
// recorder. Nil-safe on every part.
func (t *Tracer) Offer(f *Finished) {
	if t == nil || t.Recorder == nil || f == nil {
		return
	}
	t.Recorder.Offer(f)
}
