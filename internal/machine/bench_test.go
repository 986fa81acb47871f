package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/isa"
	"poseidon/internal/numeric"
)

// BenchmarkMachineKeySwitch measures the full keyswitch program — the
// heaviest operator pipeline — with synthetic key digits.
func BenchmarkMachineKeySwitch(b *testing.B) {
	n := 1024
	logN := 10
	qs, err := numeric.GenerateNTTPrimes(45, logN, 3)
	if err != nil {
		b.Fatal(err)
	}
	pp, err := numeric.GenerateNTTPrimes(46, logN, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.U280()
	m, err := New(cfg, n, append(append([]uint64{}, qs...), pp...))
	if err != nil {
		b.Fatal(err)
	}
	level := 2
	rng := rand.New(rand.NewSource(2))
	for l := 0; l <= level; l++ {
		m.WriteHBM("d2", l, randVec(rng, n, m.Moduli[l].Q))
	}
	ks := isa.NewKeySwitchConstants(m.Moduli[:3], m.Moduli[3:], level)
	for d := 0; d < len(ks.DigitLo); d++ {
		for t := 0; t <= level; t++ {
			m.WriteHBM(fmt.Sprintf("key.b%d", d), t, randVec(rng, n, m.Moduli[t].Q))
			m.WriteHBM(fmt.Sprintf("key.a%d", d), t, randVec(rng, n, m.Moduli[t].Q))
		}
		for j := 0; j < 2; j++ {
			m.WriteHBM(fmt.Sprintf("key.b%d", d), 3+j, randVec(rng, n, m.Moduli[3+j].Q))
			m.WriteHBM(fmt.Sprintf("key.a%d", d), 3+j, randVec(rng, n, m.Moduli[3+j].Q))
		}
	}
	p := isa.CompileKeySwitch(ks, "d2", "key")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
