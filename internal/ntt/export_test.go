package ntt

import "poseidon/internal/numeric"

// goBody returns a copy of t whose fused plans run the pure-Go pass bodies
// whatever NewTable selected: the reference the vector bodies are compared
// against. A test hook, not a knob — nothing outside this package's tests
// can reach it.
func goBody(t *Table) *Table {
	c := *t
	c.body = numeric.BodyGo
	return &c
}

// dqBody returns a copy of t whose fused plans run the AVX-512 DQ body
// whatever NewTable selected — on any prime, the IFMA52 ones included —
// where the CPU has DQ and N ≥ 64; elsewhere it is goBody(t).
func dqBody(t *Table) *Table {
	c := goBody(t)
	if hasDQ && t.N >= 64 {
		c.body = numeric.BodyDQ
	}
	return c
}
