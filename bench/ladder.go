package main

import (
	"fmt"

	"poseidon/internal/ckks"
)

// rung is one named point of the parameter ladder. Every workload and every
// layer microbenchmark names the rung it runs on, so a number is never
// quoted without its ring size.
type rung struct {
	Name     string `json:"name"`
	LogN     int    `json:"log_n"`
	LogQ     []int  `json:"log_q"`
	LogP     []int  `json:"log_p"`
	LogScale int    `json:"log_scale"`
	BootK    int    `json:"boot_k,omitempty"` // BootstrapConfig.K; 0 when the rung never bootstraps
	Why      string `json:"why"`
}

func repeat(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// The ladder. P13 and B9 bracket the cache hierarchy (64 KB vs 4 KB per
// limb); S11 is poseidond's own literal, so serving numbers are the ones a
// tenant of the shipped daemon sees.
var (
	rungP13 = rung{
		Name: "P13", LogN: 13, LogQ: append([]int{55}, repeat(45, 5)...), LogP: []int{58, 58}, LogScale: 45,
		Why: "64 KB per limb: NTT streams from L2; 6 limbs, 3 digits",
	}
	rungB9 = rung{
		Name: "B9", LogN: 9, LogQ: append([]int{55}, repeat(45, 27)...), LogP: repeat(52, 5), LogScale: 45, BootK: 28,
		Why: "4 KB per limb, 28+5 limbs: L1-resident transforms, limb-parallelism has room",
	}
	rungS11 = rung{
		Name: "S11", LogN: 11, LogQ: []int{50, 40, 40, 40}, LogP: []int{51, 51}, LogScale: 40,
		Why: "cmd/poseidond's parameter literal",
	}
	ladder = []rung{rungP13, rungB9, rungS11}
)

// shrunk is the rung on a tiny ring, for -smoke and the package tests: the
// modulus chains (and so every level, digit and scale rule) stay as they
// are, only N drops, so the programs run unchanged in milliseconds. The
// bootstrapping rung's 33 limbs need a smaller ring still.
func (r rung) shrunk() rung {
	r.LogN = 7
	if r.BootK != 0 {
		r.LogN = 5
	}
	return r
}

// params instantiates the rung with every library knob at its default:
// Workers 0 (the GOMAXPROCS-sized shared pool), lazy kernels, no fusion.
func (r rung) params() (*ckks.Parameters, error) {
	p, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: r.LogN, LogQ: r.LogQ, LogP: r.LogP, LogScale: r.LogScale,
	})
	if err != nil {
		return nil, fmt.Errorf("rung %s: %w", r.Name, err)
	}
	return p, nil
}
