package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/ring"
)

// Differential suite for the lazy-reduction kernels (Harvey butterflies,
// Montgomery elementwise path, fused 128-bit inner-product accumulation)
// against the strict reference (fully reduced after every butterfly and
// multiply, reduce-then-add digit sums). The evaluator runs one kernel path,
// so the strict side comes in two parts: strictDigests holds what the strict
// kernels computed for every op on the fixed inputs below — recorded while
// they were still a selectable evaluator path, on the same keys, seeds and
// parameter sets — and requireStrictLimbs checks each output live, limb by
// limb, against ntt's ForwardStrict / InverseStrict. The table is never
// refreshed from the lazy path's own output: a change meant to alter
// ciphertext bits retires it.

// strictDigests maps table/parameter set/op to the first 8 bytes (hex) of
// the SHA-256 of the strict kernels' output as MarshalBinary encodes it.
// ops: diffOps on freshInputs(17); into: intoOps' allocating forms on
// freshInputs(41); hoisted: Hoist + Rotate by each step on freshInputs(19);
// chain: the TestFusedDecryptIdentity chain on freshInputs(43); lt: the
// TestStrictLazyLinearTransform matrix.
var strictDigests = map[string]string{
	"chain/LogN8-L2":                      "c412d0c680c556db",
	"chain/LogN9-L4-alpha2":               "3e4020793a4e4da8",
	"hoisted/LogN8-L2/-1":                 "3c2a725548636446",
	"hoisted/LogN8-L2/0":                  "717b9181c7ccfe7c",
	"hoisted/LogN8-L2/1":                  "a64e286289636801",
	"hoisted/LogN8-L2/2":                  "6abb54857136a14b",
	"hoisted/LogN9-L4-alpha2/-1":          "cb6765071de18b02",
	"hoisted/LogN9-L4-alpha2/0":           "cc9c475a87e774b9",
	"hoisted/LogN9-L4-alpha2/1":           "ab4c309bed7fa3f2",
	"hoisted/LogN9-L4-alpha2/2":           "3dfbc0adc2a2dcf8",
	"into/LogN8-L2/Add":                   "d2090f2275699f3e",
	"into/LogN8-L2/AddPlain":              "594694d869333e5b",
	"into/LogN8-L2/Conjugate":             "60a3ac5c07b0c9c1",
	"into/LogN8-L2/KeySwitch":             "ef016192c275324b",
	"into/LogN8-L2/MulPlain":              "edf0b9c12dfc06ed",
	"into/LogN8-L2/MulRelin":              "037a5afbc16b2457",
	"into/LogN8-L2/Neg":                   "54ae91a1ee786cbb",
	"into/LogN8-L2/Rescale":               "26753ed2df6447f9",
	"into/LogN8-L2/Rotate+1":              "9fc1dc6470129e19",
	"into/LogN8-L2/Rotate0":               "41d102dda23586b3",
	"into/LogN8-L2/Sub":                   "ee07cce9c9e2c3af",
	"into/LogN9-L4-alpha2/Add":            "58106fc90f041300",
	"into/LogN9-L4-alpha2/AddPlain":       "ca98e86830e7be02",
	"into/LogN9-L4-alpha2/Conjugate":      "4d7b52176c65c801",
	"into/LogN9-L4-alpha2/KeySwitch":      "7f62375eb62cce73",
	"into/LogN9-L4-alpha2/MulPlain":       "c65963ee34678915",
	"into/LogN9-L4-alpha2/MulRelin":       "51b7f38573488bbc",
	"into/LogN9-L4-alpha2/Neg":            "649aa836c8a11a6a",
	"into/LogN9-L4-alpha2/Rescale":        "cf4e40edc5e4a718",
	"into/LogN9-L4-alpha2/Rotate+1":       "494dc590bab8cc47",
	"into/LogN9-L4-alpha2/Rotate0":        "da11b0fc5de5b42b",
	"into/LogN9-L4-alpha2/Sub":            "52af5cd14164ea52",
	"lt/LogN8-L2":                         "b8ca77fc62d0d910",
	"ops/LogN8-L2/Add":                    "e48f28e80c837c06",
	"ops/LogN8-L2/AddConst":               "e1a0a03e5b230830",
	"ops/LogN8-L2/AddConstReal":           "ba554355b7cd5eae",
	"ops/LogN8-L2/AddPlain":               "281f2094c28dc6f0",
	"ops/LogN8-L2/Conjugate":              "42be7a379318a80d",
	"ops/LogN8-L2/DeepChain":              "75c41a484099517c",
	"ops/LogN8-L2/EvalPoly":               "18bcc91fba469905",
	"ops/LogN8-L2/KeySwitch":              "6d25caf0c109d27e",
	"ops/LogN8-L2/MulByI":                 "a5051e7360ee0c3b",
	"ops/LogN8-L2/MulConst":               "21013a90b333178d",
	"ops/LogN8-L2/MulConstReal":           "8c82373109779295",
	"ops/LogN8-L2/MulConstRescale":        "cc811f14776bda00",
	"ops/LogN8-L2/MulPlain":               "0bd55b1855141735",
	"ops/LogN8-L2/MulRelin":               "a8eab9291c44a40e",
	"ops/LogN8-L2/MulRelinRescale":        "82787f8a8452c3c6",
	"ops/LogN8-L2/Neg":                    "25c2c5dcd283f7e9",
	"ops/LogN8-L2/Rescale":                "afa9de8b7e359e91",
	"ops/LogN8-L2/Rotate+1":               "1c0cf57904e5c138",
	"ops/LogN8-L2/Rotate-1":               "c34f31308b660169",
	"ops/LogN8-L2/Sub":                    "1d5ceb1f97190c54",
	"ops/LogN9-L4-alpha2/Add":             "bfc53f2c9d84f304",
	"ops/LogN9-L4-alpha2/AddConst":        "de48a8b6a07867ce",
	"ops/LogN9-L4-alpha2/AddConstReal":    "94e38b36d1bd9c71",
	"ops/LogN9-L4-alpha2/AddPlain":        "30cfc3d6e918ca33",
	"ops/LogN9-L4-alpha2/Conjugate":       "7ec327847179d48f",
	"ops/LogN9-L4-alpha2/DeepChain":       "220225c45c9b8009",
	"ops/LogN9-L4-alpha2/EvalPoly":        "3cc50e5828d6051a",
	"ops/LogN9-L4-alpha2/KeySwitch":       "416790e080d54568",
	"ops/LogN9-L4-alpha2/MulByI":          "f42bc08a04759ad1",
	"ops/LogN9-L4-alpha2/MulConst":        "c20e1ae25b41ec55",
	"ops/LogN9-L4-alpha2/MulConstReal":    "b269b7eaaace01cb",
	"ops/LogN9-L4-alpha2/MulConstRescale": "70c230a87c701578",
	"ops/LogN9-L4-alpha2/MulPlain":        "8cc47b9464d59b1a",
	"ops/LogN9-L4-alpha2/MulRelin":        "cb49ea6427544771",
	"ops/LogN9-L4-alpha2/MulRelinRescale": "b89f7e2657c93576",
	"ops/LogN9-L4-alpha2/Neg":             "bd318d6794e1f94f",
	"ops/LogN9-L4-alpha2/Rescale":         "bf69b379cdc8a49c",
	"ops/LogN9-L4-alpha2/Rotate+1":        "15d5f15040dcbb54",
	"ops/LogN9-L4-alpha2/Rotate-1":        "d6025aeb069ada43",
	"ops/LogN9-L4-alpha2/Sub":             "7a8ebeec9d7953df",
}

// strictLinearTransformTrace is the operator trace the strict kernels emitted
// for TestStrictLazyLinearTransform.
var strictLinearTransformTrace = map[string]int{
	"LinTrans": 1, "LinTrans/baby": 1, "LinTrans/finish": 1, "LinTrans/giant": 1, "LinTrans/hoist": 1,
}

// requireStrictDigest fails unless ct hashes to strictDigests[key].
func requireStrictDigest(t *testing.T, ct *Ciphertext, key string) {
	t.Helper()
	want, ok := strictDigests[key]
	if !ok {
		t.Fatalf("%s: no strict digest recorded", key)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:8]); got != want {
		t.Fatalf("%s: output digest %s, the strict kernels gave %s", key, got, want)
	}
}

// requireStrictLimbs checks every limb of ct against the strict transforms:
// each residue is canonical, and inv (for an NTT-domain polynomial) or fwd
// (otherwise) gives the bits of InverseStrict / ForwardStrict on it.
func requireStrictLimbs(t *testing.T, params *Parameters, ct *Ciphertext, fwd, inv func(i int, a []uint64), msg string) {
	t.Helper()
	for pi, p := range []*ring.Poly{ct.C0, ct.C1} {
		for i, limb := range p.Coeffs {
			tab := params.RingQ.Tables[i]
			for j, c := range limb {
				if c >= tab.Mod.Q {
					t.Fatalf("%s: C%d limb %d coefficient %d = %d is not reduced mod %d", msg, pi, i, j, c, tab.Mod.Q)
				}
			}
			got, want := slices.Clone(limb), slices.Clone(limb)
			if p.IsNTT {
				inv(i, got)
				tab.InverseStrict(want)
			} else {
				fwd(i, got)
				tab.ForwardStrict(want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: C%d limb %d: transform differs from the strict one", msg, pi, i)
			}
		}
	}
}

// requireRingMatchesStrict runs requireStrictLimbs with the ring's own limb
// transforms, the ones every evaluator op calls.
func requireRingMatchesStrict(t *testing.T, params *Parameters, ct *Ciphertext, msg string) {
	t.Helper()
	requireStrictLimbs(t, params, ct, params.RingQ.ForwardLimb, params.RingQ.InverseLimb, msg)
}

// TestStrictLazyEvaluatorOps is the differential table: every op × every
// parameter set, serially and at 2 workers, must reproduce the strict
// kernels' output on shared inputs, and its limbs must transform as the
// strict NTT transforms them.
func TestStrictLazyEvaluatorOps(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, pt := dc.freshInputs(17)
		for _, op := range diffOps {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", pname, op.name, w), func(t *testing.T) {
					got := op.run(dc.serial.WithWorkers(w), ct1, ct2, pt, dc)
					requireStrictDigest(t, got, "ops/"+pname+"/"+op.name)
					requireRingMatchesStrict(t, params, got, op.name)
				})
			}
		}
	}
}

// TestStrictLazyRotateHoisted pins the hoisted path (shared decomposition,
// per-rotation fused digit sums) to the strict kernels' output.
func TestStrictLazyRotateHoisted(t *testing.T) {
	steps := []int{0, 1, -1, 2}
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, _, _ := dc.freshInputs(19)
		got := rotateHoisted(dc.serial, ct1, steps)
		for _, s := range steps {
			requireStrictDigest(t, got[s], fmt.Sprintf("hoisted/%s/%d", pname, s))
			requireRingMatchesStrict(t, params, got[s], fmt.Sprintf("%s: hoisted step %d", pname, s))
		}
	}
}

// TestStrictLazyLinearTransform runs a BSGS linear transform whose
// giant-step groups hold several diagonals each, so the fused group MAC
// (k-term lazy digit sums) is exercised. Checks three things: the output is
// the strict kernels' output, the operator trace is the one the strict run
// emitted (the fused sum must not change what the accelerator model prices),
// and the result still decrypts to M·z.
func TestStrictLazyLinearTransform(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	n := params.Slots

	// Matrix from a handful of generalized diagonals spanning two
	// giant-step groups (n1=16): d ∈ {0,1,2} → j=0, d ∈ {17,18} → j=16.
	rng := rand.New(rand.NewSource(23))
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2, 17, 18} {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		diags[d] = v
	}
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
		for d, v := range diags {
			m[r][(r+d)%n] = v[r]
		}
	}

	enc := NewEncoder(params)
	lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
	if err != nil {
		t.Fatal(err)
	}

	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, lt.Rotations(), false)
	ev := NewEvaluator(params, rlk, rtk)

	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 29)
	z := randomComplex(rng, n, 1.0)
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))

	log := &eventLog{}
	ev.SetObserver(log)
	got := ev.EvaluateLinearTransform(ct, lt)
	ev.SetObserver(nil)

	requireStrictDigest(t, got, "lt/LogN8-L2")
	requireRingMatchesStrict(t, params, got, "linear transform")

	trace := log.counts()
	for op, c := range strictLinearTransformTrace {
		if trace[op] != c {
			t.Errorf("trace parity: op %s strict=%d lazy=%d", op, c, trace[op])
		}
	}
	for op := range trace {
		if _, ok := strictLinearTransformTrace[op]; !ok {
			t.Errorf("trace parity: lazy emitted %s, strict did not", op)
		}
	}

	// Semantics: decrypt and compare against M·z.
	expect := make([]complex128, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			expect[r] += m[r][c] * z[c]
		}
	}
	decr := NewDecryptor(params, sk)
	assertClose(t, enc.Decode(decr.Decrypt(ev.Rescale(got))), expect, 1e-3, "linear transform decrypts to M·z")
}
