package ntt

import "fmt"

// Strict (fully reduced) reference kernels. Every butterfly output receives
// its full modular reduction immediately — one conditional correction per
// Add/Sub and per Shoup multiply — exactly the schedule the paper's
// unfused TAM row of Table II prices. The fused plans are the one transform
// the library runs; these have two users: the tests, which pin every plan
// against them bit for bit, and the evaluator's rescale spot-check, which
// recomputes one limb through an independent kernel.

// ForwardStrict computes the in-place negacyclic NTT with per-butterfly
// reductions. Output is bit-identical to the fused plans' Forward.
func (t *Table) ForwardStrict(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	mod := t.Mod
	span := t.N
	for m := 1; m < t.N; m <<= 1 {
		span >>= 1
		for i := 0; i < m; i++ {
			w := t.psiBR[m+i]
			ws := t.psiBRShoup[m+i]
			base := 2 * i * span
			for j := base; j < base+span; j++ {
				u := a[j]
				v := mod.MulShoup(a[j+span], w, ws)
				a[j] = mod.Add(u, v)
				a[j+span] = mod.Sub(u, v)
			}
		}
	}
}

// InverseStrict computes the in-place inverse negacyclic NTT with
// per-butterfly reductions and a separate N^-1 scaling pass. Output is
// bit-identical to the fused plans' Inverse.
func (t *Table) InverseStrict(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: length %d != N=%d", len(a), t.N))
	}
	mod := t.Mod
	span := 1
	for m := t.N >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w := t.psiInvBR[m+i]
			ws := t.psiInvBRShoup[m+i]
			base := 2 * i * span
			for j := base; j < base+span; j++ {
				u := a[j]
				v := a[j+span]
				a[j] = mod.Add(u, v)
				a[j+span] = mod.MulShoup(mod.Sub(u, v), w, ws)
			}
		}
		span <<= 1
	}
	for j := range a {
		a[j] = mod.MulShoup(a[j], t.nInv, t.nInvShoup)
	}
}
