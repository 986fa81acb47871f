// Package poseidon is a software reproduction of "Poseidon: Practical
// Homomorphic Encryption Accelerator" (HPCA 2023): a complete RNS-CKKS
// homomorphic encryption library built from the paper's five reusable
// operators (ModAdd, ModMult, NTT with radix-2^k fusion, HFAuto
// automorphism, shared Barrett reduction), together with a performance,
// resource and energy model of the FPGA+HBM accelerator the paper builds
// from them.
//
// The package is a façade: it re-exports the scheme (ckks), the
// accelerator model (arch), the benchmark workloads and the operator-level
// building blocks so downstream users need a single import.
//
// Quick start:
//
//	params, _ := poseidon.NewParameters(poseidon.ParametersLiteral{
//	    LogN: 12, LogQ: []int{55, 45, 45, 45}, LogP: []int{58, 58}, LogScale: 45,
//	})
//	kit := poseidon.NewKit(params, 1)
//	ct := kit.EncryptValues([]complex128{1 + 2i, 3})
//	sq := kit.Eval.MulRelin(ct, ct)
//	fmt.Println(kit.DecryptValues(kit.Eval.Rescale(sq))[:2]) // ≈ (-3+4i), 9
//
// And the accelerator side:
//
//	model, _ := poseidon.NewModel(poseidon.U280(), poseidon.PaperParams())
//	rep := poseidon.Simulate(model, poseidon.DefaultEnergy(),
//	    poseidon.BenchmarkLR(poseidon.PaperWorkloadSpec()))
//	fmt.Printf("LR on Poseidon: %.1f ms\n", rep.TotalTime*1e3)
package poseidon

import (
	"poseidon/internal/arch"
	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/telemetry"
	"poseidon/internal/trace"
	"poseidon/internal/workloads"
)

// --- Scheme (RNS-CKKS) ----------------------------------------------------

// Parameters fixes a CKKS instance (ring degree, modulus chains, scale).
type Parameters = ckks.Parameters

// ParametersLiteral specifies parameters by prime bit sizes.
type ParametersLiteral = ckks.ParametersLiteral

// NewParameters instantiates a parameter literal.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	return ckks.NewParameters(lit)
}

// TestParameters returns a small, fast parameter set.
func TestParameters() (*Parameters, error) { return ckks.TestParameters() }

// Core scheme types.
type (
	// Encoder maps complex vectors to ring plaintexts (canonical embedding).
	Encoder = ckks.Encoder
	// Plaintext is an encoded message.
	Plaintext = ckks.Plaintext
	// Ciphertext is a degree-1 RNS-CKKS ciphertext.
	Ciphertext = ckks.Ciphertext
	// SecretKey / PublicKey / evaluation keys.
	SecretKey = ckks.SecretKey
	// PublicKey is an encryption of zero used by the encryptor.
	PublicKey = ckks.PublicKey
	// RelinearizationKey switches s² → s after CMult.
	RelinearizationKey = ckks.RelinearizationKey
	// RotationKeySet holds Galois keys per rotation step.
	RotationKeySet = ckks.RotationKeySet
	// KeyGenerator samples key material deterministically from a seed.
	KeyGenerator = ckks.KeyGenerator
	// Encryptor encrypts plaintexts under a public key.
	Encryptor = ckks.Encryptor
	// Decryptor recovers plaintexts with the secret key.
	Decryptor = ckks.Decryptor
	// Evaluator executes the homomorphic basic operations.
	Evaluator = ckks.Evaluator
	// LinearTransform is an encoded slot-matrix multiplication (BSGS) and
	// its evaluation schedule: sorted baby steps, giant-step groups, and the
	// exact Galois element set to provision keys for (GaloisElements).
	LinearTransform = ckks.LinearTransform
	// LinTransStats counts the work one linear-transform evaluation did
	// (keyswitches, ModDown sweeps, NTT limbs) — bench/ reads them as the
	// ckks.lintrans.* counts.
	LinTransStats = ckks.LinTransStats
	// Bootstrapper refreshes exhausted ciphertexts.
	Bootstrapper = ckks.Bootstrapper
	// BootstrapConfig tunes the bootstrapping pipeline.
	BootstrapConfig = ckks.BootstrapConfig
)

// Scheme constructors.
var (
	NewEncoder         = ckks.NewEncoder
	NewKeyGenerator    = ckks.NewKeyGenerator
	NewEncryptor       = ckks.NewEncryptor
	NewDecryptor       = ckks.NewDecryptor
	NewEvaluator       = ckks.NewEvaluator
	NewCiphertext      = ckks.NewCiphertext
	NewLinearTransform = ckks.NewLinearTransform
	// NewLinearTransformBSGS pins the baby-step width n1 (0 = planned from
	// the matrix, as NewLinearTransform does). Pin it to give a second
	// transform the width the planner chose for the first (LinearTransform.N1)
	// when the two must share one rotation-key set — the bootstrapper plans
	// CoeffToSlot and hands its width to SlotToCoeff, no fixed √n — to
	// bit-compare two engines on one split, and for sweeps.
	NewLinearTransformBSGS = ckks.NewLinearTransformBSGS
	NewBootstrapper        = ckks.NewBootstrapper
	ChebyshevCoeffsOf      = ckks.ChebyshevCoefficients
	EvalChebyshevScalar    = ckks.EvalChebyshevScalar
)

// --- Typed error surface ----------------------------------------------------

// OpError is the error type returned by every Try* method: a sentinel
// (below) wrapped in operation context. Match the sentinel with errors.Is
// and recover the context with errors.As.
type OpError = ckks.OpError

// RecoveryPolicy makes an evaluator transparently re-execute Try* ops that
// fail integrity verification (Evaluator.SetRecoveryPolicy).
type RecoveryPolicy = ckks.RecoveryPolicy

// Sentinel errors carried by OpError; see internal/ckks/errors.go.
var (
	// ErrLevelExhausted: the modulus chain cannot absorb the operation.
	ErrLevelExhausted = ckks.ErrLevelExhausted
	// ErrScaleMismatch: additive operands disagree on scale.
	ErrScaleMismatch = ckks.ErrScaleMismatch
	// ErrAliasedDestination: an Into destination aliases an operand that
	// must remain readable.
	ErrAliasedDestination = ckks.ErrAliasedDestination
	// ErrIntegrity: a runtime integrity guard detected corrupted limb data.
	ErrIntegrity = ckks.ErrIntegrity
	// ErrKeyMissing: the evaluator lacks the required evaluation key.
	ErrKeyMissing = ckks.ErrKeyMissing
	// ErrInvalidInput: a malformed argument (nil, wrong geometry, bad width).
	ErrInvalidInput = ckks.ErrInvalidInput
	// ErrCorrupt: serialized bytes failed structural validation.
	ErrCorrupt = ckks.ErrCorrupt
	// ErrInternal: an unexpected panic recovered at the API boundary.
	ErrInternal = ckks.ErrInternal
)

// --- Accelerator model ------------------------------------------------------

// Config is an accelerator design point (lanes, fusion degree, clock, HBM).
type Config = arch.Config

// FHEParams is the ciphertext geometry a model evaluates under.
type FHEParams = arch.FHEParams

// Model prices FHE basic operations on a design point.
type Model = arch.Model

// Profile is the cost of one basic operation.
type Profile = arch.Profile

// Operator identifies an operator core family (MA, MM, NTT, Auto).
type Operator = arch.Operator

// EnergyModel converts operation counts into energy.
type EnergyModel = arch.EnergyModel

// Report is a simulated benchmark result.
type Report = arch.Report

// Resources counts FPGA primitives.
type Resources = arch.Resources

// CoreResources is the per-core-family resource model.
type CoreResources = arch.CoreResources

// AutoKind selects the automorphism core design (HFAuto vs naive).
type AutoKind = arch.AutoKind

// HBMGeometry is the channel-level memory-system model.
type HBMGeometry = arch.HBMGeometry

// NoiseEstimator measures slot precision against references.
type NoiseEstimator = ckks.NoiseEstimator

// Accelerator constructors and presets.
var (
	U280               = arch.U280
	U280HBM            = arch.U280HBM
	SmartSSD           = arch.SmartSSD
	NDPEnergy          = arch.NDPEnergy
	PaperParams        = arch.PaperParams
	NewModel           = arch.NewModel
	DefaultEnergy      = arch.DefaultEnergy
	Simulate           = arch.Simulate
	SimulateOverlapped = arch.SimulateOverlapped
	NewCoreResources   = arch.NewCoreResources
	NewNoiseEstimator  = ckks.NewNoiseEstimator
)

// Operator core families.
const (
	OpMA   = arch.MA
	OpMM   = arch.MM
	OpNTT  = arch.NTT
	OpAuto = arch.Auto
	OpMem  = arch.Mem
)

// Automorphism core designs.
const (
	HFAutoCore    = arch.HFAutoCore
	NaiveAutoCore = arch.NaiveAutoCore
)

// --- Telemetry --------------------------------------------------------------

// OpEvent is the evaluator's report of one operation: name, level, wall time,
// outcome, and what the recovery loop did.
type OpEvent = trace.OpEvent

// OpSink receives every OpEvent of the evaluator it is installed on with
// Eval.SetObserver; TraceRecorder and Collector are sinks.
type OpSink = trace.OpSink

// Collector accumulates per-(op, limb-count) latency histograms; install it
// with Kit.EnableTelemetry or Eval.SetObserver.
type Collector = telemetry.Collector

// MetricsSnapshot is a point-in-time view of a collector.
type MetricsSnapshot = telemetry.Snapshot

// MetricsServer is the optional /metrics + /debug/pprof HTTP endpoint.
type MetricsServer = telemetry.Server

// CalibStats joins measured per-op wall time with model predictions.
type CalibStats = telemetry.CalibStats

// KindCalib is one operation kind's measured-vs-modeled calibration row.
type KindCalib = telemetry.KindCalib

// Telemetry constructors and helpers.
var (
	// NewCollector creates a standalone collector for a named workload.
	NewCollector = telemetry.NewCollector
	// StartMetricsServer serves a collector on addr ("127.0.0.1:0" for an
	// ephemeral port): /metrics, /debug/pprof.
	StartMetricsServer = telemetry.StartServer
	// Calibrate computes per-kind measured/modeled ratios for a snapshot.
	Calibrate = telemetry.Calibrate
	// Fanout combines sinks so a recorder and a collector can watch the same
	// evaluator.
	Fanout = ckks.Fanout
	// ProfileDo runs fn under pprof labels {workload, phase}.
	ProfileDo = telemetry.Do
)

// --- Serving ---------------------------------------------------------------

// Hoisted is a reusable key-switch digit decomposition: decompose once with
// Evaluator.Hoist (or TryHoist), rotate by many step counts, then Release.
type Hoisted = ckks.Hoisted

// EvalServer is the multi-tenant evaluation server behind cmd/poseidond:
// hardened wire decoding, a refcounted LRU key registry, and one dispatch
// lane per evaluator worker, with queued rotations of one ciphertext sharing
// a hoisted decomposition.
type EvalServer = server.EvalServer

// EvalServerConfig sizes an EvalServer (hoist-group cap, queue depth,
// registry capacity, the arena admission ceiling, op and job attempts).
type EvalServerConfig = server.Config

// EvalServerStats is a point-in-time snapshot of serving counters
// (dispatch-unit occupancy, hoist sharing, rejections, job retries).
type EvalServerStats = server.Stats

// ServeClient is a thin HTTP client for the poseidond wire protocol.
type ServeClient = server.Client

// EvalRequest is one evaluation request in the serving wire envelope.
type EvalRequest = server.EvalRequest

// KeyUpload carries a tenant's evaluation keys to /v1/keys.
type KeyUpload = server.KeyUpload

// ServeOp names the operation an EvalRequest asks for.
type ServeOp = server.Op

// Serving opcodes.
const (
	ServeOpAdd       = server.OpAdd
	ServeOpSub       = server.OpSub
	ServeOpMulRelin  = server.OpMulRelin
	ServeOpRescale   = server.OpRescale
	ServeOpRotate    = server.OpRotate
	ServeOpConjugate = server.OpConjugate
	ServeOpInnerSum  = server.OpInnerSum
	ServeOpNegate    = server.OpNegate
)

// Serving error sentinels (test with errors.Is; the HTTP layer maps them
// to 400 / 404 / 503 respectively).
var (
	ErrBadRequest    = server.ErrBadRequest
	ErrUnknownTenant = server.ErrUnknownTenant
	ErrOverloaded    = server.ErrOverloaded
)

// Serving constructors and wire codecs.
var (
	// NewEvalServer builds a serving stack from a config; Close drains it.
	NewEvalServer = server.NewEvalServer
	// EncodeEvalRequest / DecodeEvalRequest round-trip the binary eval
	// envelope POSTed to /v1/eval.
	EncodeEvalRequest = server.EncodeEvalRequest
	DecodeEvalRequest = server.DecodeEvalRequest
	// EncodeKeyUpload / DecodeKeyUpload round-trip the key envelope.
	EncodeKeyUpload = server.EncodeKeyUpload
	DecodeKeyUpload = server.DecodeKeyUpload
	// ParseServeOp maps an op name ("rotate", "mulrelin", ...) to its code.
	ParseServeOp = server.ParseOp
)

// --- Workloads and traces --------------------------------------------------

// Trace is an operation-level execution trace.
type Trace = trace.Trace

// TraceOp is one batched basic operation in a trace.
type TraceOp = trace.Op

// WorkloadSpec fixes the geometry a workload trace is generated for.
type WorkloadSpec = workloads.Spec

// Benchmark workload generators (the paper's Table V).
var (
	PaperWorkloadSpec   = workloads.PaperSpec
	BenchmarkLR         = workloads.LR
	BenchmarkLSTM       = workloads.LSTM
	BenchmarkResNet20   = workloads.ResNet20
	BenchmarkPackedBoot = workloads.PackedBootstrapping
	BenchmarkAll        = workloads.All
)
