package ckks

import (
	"math/rand"
	"testing"
)

// Benchmarks of a dense 4096×4096 transform at LogN=13 on both schedules,
// mainly for profiling the engines:
//
//	go test ./internal/ckks -run xx -bench LinearTransformDense/double-hoisted/n1=128 \
//	    -benchtime 3x -cpuprofile cpu.out
func BenchmarkLinearTransformDense(b *testing.B) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     13,
		LogQ:     []int{55, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := params.Slots
	level := params.MaxLevel()
	enc := NewEncoder(params)
	rng := rand.New(rand.NewSource(9))
	dense := make([][]complex128, n)
	for r := range dense {
		row := make([]complex128, n)
		for c := range row {
			row[c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		dense[r] = row
	}
	for _, n1 := range []int{64, 128, 256} {
		lt, err := NewLinearTransformBSGS(enc, dense, level, params.Scale, n1)
		if err != nil {
			b.Fatal(err)
		}
		fx := newLtFixture(b, params, lt, enc, rng)
		dst := NewCiphertext(params, lt.Level)
		b.Run("double-hoisted/n1="+itoa(n1), func(b *testing.B) {
			fx.ev.EvaluateLinearTransformInto(dst, fx.ct, lt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.ev.EvaluateLinearTransformInto(dst, fx.ct, lt)
			}
		})
		b.Run("per-rotation/n1="+itoa(n1), func(b *testing.B) {
			fx.ev.EvaluateLinearTransformPerRotation(fx.ct, lt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.ev.EvaluateLinearTransformPerRotation(fx.ct, lt)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
