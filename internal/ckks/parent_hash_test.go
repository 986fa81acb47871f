package ckks

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// parentHashes are the SHA-256 digests of the serialized outputs of the
// seeded program below, as produced by the commit before the keyswitch inner
// product became one register-resident limb-major stage (3fb52a2: digit-major
// 128-bit accumulator rows, staged permutations). The rewrite changes loop
// order and where sums live, never a residue, so every keyswitch path must
// still reproduce them — at 1 and 2 workers; the strict=true runs also check
// every output's limbs against the strict transforms. Regenerate only for a
// change that is meant to alter ciphertext bits: empty the table, run the
// test, paste what it prints.
var parentHashes = map[string]string{
	"EvaluateLinearTransformInto": "13ef041cceb82c417151887b7b4f051e0cd46cb8a16d610bef62cf33e2ce1072",
	"RotateInto":                  "85cf3c08589e4db5cdcf6721ddd1669b916cf015d42bc3eb2f789e8d4d775860",
	"Hoisted.Rotate":              "85cf3c08589e4db5cdcf6721ddd1669b916cf015d42bc3eb2f789e8d4d775860",
	"MulRelinInto":                "87d5349b8bd00411fb57d309f0477b1070ea3daa4c322f835cc53edee16a0814",

	// Added at 19a7075, the commit before the keyswitch stopped running the
	// transforms it does not need (NTT-domain ModDown, untransformed digit-own
	// limbs, C0 permuted in the NTT domain, Rescale as one limb stage): the
	// ops that change touched and no digest above covered.
	"RescaleInto":        "8221db58105866161cf555017886c380015d6035d91ef09c7ac6645188690475",
	"KeySwitchInto":      "2b061de9b75e166e97e9632a32ae09447f697cf01ba493619d7890697f74bdc3",
	"ConjugateInto":      "a36c446fba1e2277ee49c96a37178762c5e47e4681b8ee5c151bf72507d9f05e",
	"RotateInto/aliased": "85cf3c08589e4db5cdcf6721ddd1669b916cf015d42bc3eb2f789e8d4d775860",

	// Added at 65683df, the commit before the elementwise ops and the
	// transform's P·ct lift became limb stages under ring.Run (they called the
	// ring's *Parallel twins): the ops that change touched.
	"AddInto":      "42c3102b7188123a3eaa032d5dd6eb80113490e2c26ba1a47808de32cc0302e7",
	"SubInto":      "12d47733186492fcb32e0dc9cf0dc609f2b7fe5f389ae8cae3382068571f411b",
	"NegInto":      "25aa4f1340be4bd1aee02b817ce15bc97e5c1e50d2229b8ca519cf09679ecbc3",
	"AddPlainInto": "49d7c0a5d2f6f4e4f1a241a790facc752fdf63c73a599985e2fb74357c8d94b6",
	"MulPlainInto": "676e8f9958a9ddc0217726f9e52608e48458903abf470b0fccf258071e797c5a",

	// Added at 6b9275d, the commit before every extended-basis accumulator
	// and transform diagonal became one poly over Q_l ∪ P: below the top
	// level the extended width ext1 is narrower than the full |Q|+|P|, so a
	// row-slicing slip shows here and in no row above. Operands are
	// DropLevel views of ct / ct2 and the transform is m at level 2 with the
	// same split, so no key or RNG draw is added.
	"MulRelinInto/level2":                "3f3c6bd54ad9c59c1931ae8f46a5e3d79a07682f3895420ec398b33bb43eadca",
	"RotateInto/level2":                  "391c8b138e56436d86e309d0373bc56d91aaa20e4d475e309645e6d4927261a8",
	"Hoisted.Rotate/level2":              "391c8b138e56436d86e309d0373bc56d91aaa20e4d475e309645e6d4927261a8",
	"EvaluateLinearTransformInto/level2": "bb9b699fe01e83a820e0836bbae72aebdbb1cf493405c2d42193f399a0dc9dd2",

	// Added at 625b295, the commit before key generation permuted the
	// secret's NTT image instead of running INTT → HFAuto → NTT: the bytes of
	// the keys themselves. The rotation set carries both signs, a step past
	// the slot count's half and the conjugation key; the Galois set is the
	// transform's exact elements. Drawn after every ciphertext row above.
	"GenRelinearizationKey": "7b1313d49d7628a18d73701938626586730a5bca2b2e533ab3e2bce53ed58576",
	"GenRotationKeys":       "e5f9772afd92dbbd67101c2e202113d8f86c70268f7b5dba2b59d8073655007e",
	"GenGaloisKeys":         "bf20509ac222d9739bc5a4e99c762b3f56522c42aab54a2d6bb5dca2a861dfc0",
}

func TestKeyswitchPathsMatchParentCommit(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("strict=%v/workers=%d", strict, workers), func(t *testing.T) {
				params, err := NewParameters(ParametersLiteral{
					LogN:     10,
					LogQ:     []int{55, 45, 45, 45, 45},
					LogP:     []int{58, 58},
					LogScale: 45,
					Workers:  workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				n := params.Slots
				rng := rand.New(rand.NewSource(97))
				enc := NewEncoder(params)
				// Babies {1,2,3,5}, groups j ∈ {0, 8, 40}: both keyswitch sites
				// of the engine and a j = 0 fold, with the split pinned.
				m := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 1, 2, 3, 9, 13, 42}))
				lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, 8)
				if err != nil {
					t.Fatal(err)
				}

				kgen := NewKeyGenerator(params, 42)
				sk := kgen.GenSecretKey()
				rlk := kgen.GenRelinearizationKey(sk)
				rtk := kgen.GenRotationKeys(sk, append(lt.Rotations(), 7), false)
				ev := NewEvaluator(params, rlk, rtk)
				encr := NewEncryptor(params, kgen.GenPublicKey(sk), 29)
				ct := encr.Encrypt(enc.Encode(randomComplex(rng, n, 1.0), params.MaxLevel(), params.Scale))
				ct2 := encr.Encrypt(enc.Encode(randomComplex(rng, n, 1.0), params.MaxLevel(), params.Scale))
				pt := enc.Encode(randomComplex(rng, n, 1.0), params.MaxLevel(), params.Scale)

				// The conjugation key is drawn last, after everything the four
				// 3fb52a2 digests depend on, so it shifts none of them.
				conjG := ev.conjG()
				rtk.Keys[conjG] = kgen.GenGaloisKeys(sk, []uint64{conjG}).Keys[conjG]
				aliased := ct.CopyNew()

				h := ev.Hoist(ct)
				defer h.Release()
				const low = 2
				ctLow, ct2Low := ev.DropLevel(ct, low), ev.DropLevel(ct2, low)
				ltLow, err := NewLinearTransformBSGS(enc, m, low, params.Scale, 8)
				if err != nil {
					t.Fatal(err)
				}
				hLow := ev.Hoist(ctLow)
				defer hLow.Release()
				got := map[string]*Ciphertext{
					"RescaleInto":                 ev.RescaleInto(NewCiphertext(params, ct.Level-1), ct),
					"KeySwitchInto":               ev.KeySwitchInto(NewCiphertext(params, ct.Level), ct, &rlk.SwitchingKey),
					"ConjugateInto":               ev.ConjugateInto(NewCiphertext(params, ct.Level), ct),
					"RotateInto/aliased":          ev.RotateInto(aliased, aliased, 7),
					"EvaluateLinearTransformInto": ev.EvaluateLinearTransformInto(NewCiphertext(params, lt.Level), ct, lt),
					"RotateInto":                  ev.RotateInto(NewCiphertext(params, ct.Level), ct, 7),
					"Hoisted.Rotate":              h.Rotate(7),
					"MulRelinInto":                ev.MulRelinInto(NewCiphertext(params, ct.Level), ct, ct2),
					"AddInto":                     ev.AddInto(NewCiphertext(params, ct.Level), ct, ct2),
					"SubInto":                     ev.SubInto(NewCiphertext(params, ct.Level), ct, ct2),
					"NegInto":                     ev.NegInto(NewCiphertext(params, ct.Level), ct),
					"AddPlainInto":                ev.AddPlainInto(NewCiphertext(params, ct.Level), ct, pt),
					"MulPlainInto":                ev.MulPlainInto(NewCiphertext(params, ct.Level), ct, pt),

					"MulRelinInto/level2":                ev.MulRelinInto(NewCiphertext(params, low), ctLow, ct2Low),
					"RotateInto/level2":                  ev.RotateInto(NewCiphertext(params, low), ctLow, 7),
					"Hoisted.Rotate/level2":              hLow.Rotate(7),
					"EvaluateLinearTransformInto/level2": ev.EvaluateLinearTransformInto(NewCiphertext(params, low), ctLow, ltLow),
				}
				for name, out := range got {
					blob, err := out.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(blob)
					if hx := hex.EncodeToString(sum[:]); hx != parentHashes[name] {
						t.Errorf("%s: output hash differs from the parent commit\n\t%q: %q,", name, name, hx)
					}
					if strict {
						requireRingMatchesStrict(t, params, out, name)
					}
				}

				rotKeys := kgen.GenRotationKeys(sk, []int{-1, 1, 5, 17, 300}, true)
				galKeys := kgen.GenGaloisKeys(sk, lt.Plan().GaloisElements())
				for name, key := range map[string]encoding.BinaryMarshaler{
					"GenRelinearizationKey": rlk,
					"GenRotationKeys":       rotKeys,
					"GenGaloisKeys":         galKeys,
				} {
					blob, err := key.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(blob)
					if hx := hex.EncodeToString(sum[:]); hx != parentHashes[name] {
						t.Errorf("%s: key bytes differ from the parent commit\n\t%q: %q,", name, name, hx)
					}
				}
			})
		}
	}
}
