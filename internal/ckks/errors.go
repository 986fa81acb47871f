package ckks

import (
	"errors"
	"fmt"
)

// Sentinel errors of the typed error surface. Every evaluator surface reports
// failure with these — wrapped in an *OpError carrying operation and limb
// context; the Try* methods and the kit-level wrappers return it, the
// panicking forms panic with it — so callers dispatch with errors.Is:
//
//	if errors.Is(err, ckks.ErrIntegrity) { retry the batch }
var (
	// ErrLevelExhausted reports that the modulus chain cannot absorb the
	// operation: a rescale at level 0, or a scale that no longer fits under
	// the active chain product (the modulus-headroom guard fired).
	ErrLevelExhausted = errors.New("level exhausted")

	// ErrScaleMismatch reports operands whose scales differ where the
	// operation requires them equal (Add/Sub/AddPlain).
	ErrScaleMismatch = errors.New("scale mismatch")

	// ErrAliasedDestination reports a destination that shares storage with
	// an operand of an operation that cannot tolerate it (MulRelinInto).
	ErrAliasedDestination = errors.New("aliased destination")

	// ErrIntegrity reports a runtime integrity-guard failure: a residue
	// checksum that no longer matches its seal, or a redundant-limb
	// spot-check whose recomputation disagrees — the software analogue of a
	// detected hardware fault.
	ErrIntegrity = errors.New("integrity check failed")

	// ErrKeyMissing reports an operation that needs key material the
	// evaluator was not built with (relinearization or rotation keys).
	ErrKeyMissing = errors.New("required key missing")

	// ErrInvalidInput reports a malformed argument: nil ciphertext, a Level
	// inconsistent with the limb count, an undersized destination, a
	// non-power-of-two InnerSum width.
	ErrInvalidInput = errors.New("invalid input")

	// ErrCorrupt reports serialized bytes that fail structural validation
	// (bad magic, truncation, geometry outside the parameter caps).
	ErrCorrupt = errors.New("corrupt serialized data")

	// ErrInternal wraps a panic recovered at the op boundary that does not
	// map to a known sentinel — a bug, not a usage error.
	ErrInternal = errors.New("internal error")
)

// OpError is the typed error surface's carrier: which operation failed, at
// what level, on which limb (−1 when not limb-specific), wrapping the
// sentinel that classifies the failure.
type OpError struct {
	Op     string // operation name as observed in traces ("CMult", "Rescale", …)
	Level  int
	Limb   int // -1 when the failure is not limb-specific
	Err    error
	Detail string
}

// Error formats as "ckks: <op>: <sentinel> (<detail>) [level l, limb i]",
// dropping the level/limb clauses when they carry no information (-1).
func (e *OpError) Error() string {
	msg := fmt.Sprintf("ckks: %s: %v", e.Op, e.Err)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	if e.Limb >= 0 {
		return fmt.Sprintf("%s [level %d, limb %d]", msg, e.Level, e.Limb)
	}
	if e.Level >= 0 {
		return fmt.Sprintf("%s [level %d]", msg, e.Level)
	}
	return msg
}

// Unwrap exposes the sentinel for errors.Is.
func (e *OpError) Unwrap() error { return e.Err }

// opErr builds an *OpError without limb context.
func opErr(op string, level int, sentinel error, format string, args ...any) *OpError {
	return &OpError{Op: op, Level: level, Limb: -1, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
}

// recoverOp is the recovery boundary, deferred by exec and by each attempt
// inside it: a panic raised anywhere in the operation body is translated
// into a returned error — an *OpError passes through as-is, anything else
// wraps ErrInternal — so no surface ever lets a raw panic value out. level
// is read when the panic arrives, not when the boundary was set up: exec
// learns the result level only after validating the operands.
func recoverOp(op string, level *int, err *error) {
	if r := recover(); r != nil {
		if oe, ok := r.(*OpError); ok {
			*err = oe
			return
		}
		*err = &OpError{Op: op, Level: *level, Limb: -1, Err: ErrInternal, Detail: fmt.Sprint(r)}
	}
}
