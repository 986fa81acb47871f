package poseidon

import (
	"fmt"

	"poseidon/internal/ckks"
	"poseidon/internal/telemetry"
)

// Kit bundles everything a quick-start user needs: keys, encoder,
// encryptor, decryptor and a fully keyed evaluator with rotation keys for
// power-of-two steps.
type Kit struct {
	Params *Parameters
	Enc    *Encoder
	SK     *SecretKey
	PK     *PublicKey
	RLK    *RelinearizationKey
	RTK    *RotationKeySet
	Encr   *Encryptor
	Decr   *Decryptor
	Eval   *Evaluator

	// tele is the kit's installed telemetry collector (nil when telemetry
	// is off); telePrev remembers the sink that was installed before
	// EnableTelemetry so DisableTelemetry can restore it.
	tele     *telemetry.Collector
	telePrev OpSink

	// kgen is retained so key material generated after construction
	// (LinearTransformKeys) continues the same deterministic random stream
	// instead of reusing the seed — regenerating from the seed would reuse
	// the (a, e) samples across different Galois targets.
	kgen *ckks.KeyGenerator
}

// NewKit generates all key material from the seed and returns a ready-to-use
// toolkit. Rotation keys cover ±2^i steps plus conjugation, enough for
// rotate-and-sum reductions over the full slot vector.
func NewKit(params *Parameters, seed int64) *Kit {
	kgen := ckks.NewKeyGenerator(params, seed)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	var steps []int
	for s := 1; s < params.Slots; s <<= 1 {
		steps = append(steps, s, -s)
	}
	rtk := kgen.GenRotationKeys(sk, steps, true)
	return &Kit{
		Params: params,
		Enc:    ckks.NewEncoder(params),
		SK:     sk,
		PK:     pk,
		RLK:    rlk,
		RTK:    rtk,
		Encr:   ckks.NewEncryptor(params, pk, seed+1),
		Decr:   ckks.NewDecryptor(params, sk),
		Eval:   ckks.NewEvaluator(params, rlk, rtk),
		kgen:   kgen,
	}
}

// LinearTransformKeys provisions rotation keys for the Galois elements lt
// needs (lt.GaloisElements()) and merges them into the kit's key set. The
// kit's evaluator holds the same RotationKeySet, so the new keys are usable
// immediately — no rebuild, observers and guards stay installed. Elements
// the kit already holds a key for (the power-of-two ladder, an earlier
// transform's steps) are skipped: a second key for the same element would be
// several megabytes of garbage. Returns every Galois element the transform
// needs — the list a serving tenant uploads alongside the transform.
func (k *Kit) LinearTransformKeys(lt *LinearTransform) []uint64 {
	gals := lt.GaloisElements()
	var missing []uint64
	for _, g := range gals {
		if _, held := k.RTK.Keys[g]; !held {
			missing = append(missing, g)
		}
	}
	for g, swk := range k.kgen.GenGaloisKeys(k.SK, missing).Keys {
		k.RTK.Keys[g] = swk
	}
	return gals
}

// EncryptValues encodes and encrypts a complex vector at the top level and
// default scale.
func (k *Kit) EncryptValues(values []complex128) *Ciphertext {
	pt := k.Enc.Encode(values, k.Params.MaxLevel(), k.Params.Scale)
	return k.Encr.Encrypt(pt)
}

// EncryptReals encodes and encrypts a real vector.
func (k *Kit) EncryptReals(values []float64) *Ciphertext {
	cs := make([]complex128, len(values))
	for i, v := range values {
		cs[i] = complex(v, 0)
	}
	return k.EncryptValues(cs)
}

// DecryptValues decrypts and decodes back to the slot vector.
func (k *Kit) DecryptValues(ct *Ciphertext) []complex128 {
	return k.Enc.Decode(k.Decr.Decrypt(ct))
}

// InnerSum rotates-and-adds so that slot 0 of the result holds the sum of
// the first n slots (n must be a power of two) — the standard reduction
// every rotation-based workload builds on. Panics on invalid input; use
// k.Eval.TryInnerSum for an error-returning variant.
func (k *Kit) InnerSum(ct *Ciphertext, n int) *Ciphertext {
	out, err := k.Eval.TryInnerSum(ct, n)
	if err != nil {
		panic(err)
	}
	return out
}

// --- Error-returning API ----------------------------------------------------
//
// The Try variants mirror the panicking convenience methods but validate
// their inputs and recover internal panics, so no input — malformed
// ciphertexts included — can take the process down. Failures carry the
// ckks sentinel errors (ErrInvalidInput, ErrKeyMissing, ErrIntegrity, …)
// wrapped in operation context; match them with errors.Is.

// recoverKit converts a panic escaping a kit entry point into an error,
// preserving typed *ckks.OpError panics and wrapping anything else in
// ErrInternal so the public API never panics on malformed input.
func recoverKit(op string, err *error) {
	if r := recover(); r != nil {
		if oe, ok := r.(*ckks.OpError); ok {
			*err = oe
			return
		}
		*err = &ckks.OpError{Op: op, Level: -1, Limb: -1, Err: ckks.ErrInternal, Detail: fmt.Sprint(r)}
	}
}

// TryEncryptValues encodes and encrypts a complex vector at the top level
// and default scale. A vector longer than the slot count, or a value that is
// not finite or too large for the scale, is ErrInvalidInput.
func (k *Kit) TryEncryptValues(values []complex128) (ct *Ciphertext, err error) {
	defer recoverKit("EncryptValues", &err)
	pt := k.Enc.Encode(values, k.Params.MaxLevel(), k.Params.Scale)
	return k.Encr.Encrypt(pt), nil
}

// TryDecryptValues decrypts and decodes back to the slot vector. When
// integrity guards are enabled the ciphertext's checksum seal is verified
// first, so a corrupted result is reported as ErrIntegrity instead of
// silently decoding garbage. A malformed ciphertext is ErrInvalidInput.
func (k *Kit) TryDecryptValues(ct *Ciphertext) (values []complex128, err error) {
	defer recoverKit("DecryptValues", &err)
	if k.Eval.GuardsEnabled() {
		if verr := k.Eval.VerifyIntegrity(ct); verr != nil {
			return nil, verr
		}
	}
	return k.Enc.Decode(k.Decr.Decrypt(ct)), nil
}

// EnableTelemetry installs a telemetry collector on the kit's evaluator:
// every basic operation's wall time lands in a per-(op, limb-count) latency
// histogram, ready for Prometheus export and model calibration. Any
// sink already installed (e.g. a TraceRecorder) keeps receiving its events
// via a fanout. Returns the collector; calling again while
// telemetry is enabled returns the existing collector unchanged.
func (k *Kit) EnableTelemetry(workload string) *telemetry.Collector {
	if k.tele != nil {
		return k.tele
	}
	k.telePrev = k.Eval.Observer()
	k.tele = telemetry.NewCollector(workload)
	k.Eval.SetObserver(ckks.Fanout(k.telePrev, k.tele))
	return k.tele
}

// Metrics returns the installed telemetry collector, or nil when telemetry
// is off.
func (k *Kit) Metrics() *telemetry.Collector { return k.tele }

// DisableTelemetry removes the collector and restores whatever sink was
// installed before EnableTelemetry. The detached collector (and its
// accumulated histograms) remains readable.
func (k *Kit) DisableTelemetry() {
	if k.tele == nil {
		return
	}
	k.Eval.SetObserver(k.telePrev)
	k.tele, k.telePrev = nil, nil
}
