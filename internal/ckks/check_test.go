package ckks

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The boundary checks refuse a word that is not a canonical residue — w + q,
// w + 2q and 2^64 − 1, on limb 0 (55 bits) and on a 45-bit limb, in either
// polynomial of a ciphertext and in a Q or P row of a switching key — with
// an *OpError wrapping ErrInvalidInput that names where the word is, and
// accept the same objects with every word canonical.
func TestCheckRefusesNonCanonicalWords(t *testing.T) {
	tc := newTestContext(t)
	p := tc.params
	rng := rand.New(rand.NewSource(5))
	ct := tc.encryptVec(randomComplex(rng, p.Slots, 1))
	if err := p.CheckCiphertext(ct); err != nil {
		t.Fatalf("canonical ciphertext refused: %v", err)
	}
	if err := p.CheckSwitchingKey(&tc.rlk.SwitchingKey); err != nil {
		t.Fatalf("canonical relinearization key refused: %v", err)
	}
	bad := map[string]func(w, q uint64) uint64{
		"w+q":    func(w, q uint64) uint64 { return w + q },
		"w+2q":   func(w, q uint64) uint64 { return w + 2*q },
		"2^64-1": func(w, q uint64) uint64 { return math.MaxUint64 },
	}
	refused := func(label string, err error, limb int) {
		t.Helper()
		var oe *OpError
		if !errors.As(err, &oe) || !errors.Is(err, ErrInvalidInput) || oe.Limb != limb || !strings.Contains(oe.Detail, "index 7") {
			t.Fatalf("%s: got %v, want an *OpError wrapping ErrInvalidInput naming limb %d index 7", label, err, limb)
		}
	}
	for name, f := range bad {
		for _, limb := range []int{0, 2} {
			for c, row := range [][]uint64{ct.C0.Coeffs[limb], ct.C1.Coeffs[limb]} {
				w := row[7]
				row[7] = f(w, p.RingQ.Moduli[limb].Q)
				err := p.CheckCiphertext(ct)
				row[7] = w
				refused(name, err, limb)
				if !strings.Contains(err.Error(), []string{"C0", "C1"}[c]) {
					t.Fatalf("%s: %v does not name polynomial C%d", name, err, c)
				}
			}
			a := limb % p.Alpha()
			for _, k := range []struct {
				row  []uint64
				q    uint64
				limb int
			}{
				{tc.rlk.B[1].Q.Coeffs[limb], p.RingQ.Moduli[limb].Q, limb},
				{tc.rlk.A[0].P.Coeffs[a], p.RingP.Moduli[a].Q, a},
			} {
				w := k.row[7]
				k.row[7] = f(w, k.q)
				err := p.CheckSwitchingKey(&tc.rlk.SwitchingKey)
				k.row[7] = w
				refused(name+" in a key", err, k.limb)
			}
		}
	}
	// A key whose digits disagree, or whose rows do not fit, is refused by
	// shape before any word is read.
	short := tc.rlk.SwitchingKey
	short.A = short.A[:len(short.A)-1]
	if err := p.CheckSwitchingKey(&short); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("key with fewer A than B digits: %v, want ErrInvalidInput", err)
	}
	if err := p.CheckSwitchingKey(nil); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("nil key: %v, want ErrInvalidInput", err)
	}
}
