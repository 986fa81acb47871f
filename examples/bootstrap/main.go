// Bootstrap: refresh an exhausted ciphertext with packed bootstrapping —
// ModRaise → CoeffToSlot → EvalMod (scaled sine) → SlotToCoeff — then keep
// computing on the refreshed ciphertext. This is the paper's headline
// "even the expensive bootstrapping" capability, at functional scale.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"poseidon"
)

func main() {
	// A long chain: bootstrapping consumes 11 levels internally and returns
	// level 2; the rest is headroom the refresh never touches.
	logQ := []int{55}
	for i := 0; i < 27; i++ {
		logQ = append(logQ, 45)
	}
	params, err := poseidon.NewParameters(poseidon.ParametersLiteral{
		LogN:     9,
		LogQ:     logQ,
		LogP:     []int{52, 52, 52, 52, 52},
		LogScale: 45,
	})
	if err != nil {
		log.Fatal(err)
	}

	enc := poseidon.NewEncoder(params)
	kgen := poseidon.NewKeyGenerator(params, 5)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := poseidon.NewEncryptor(params, pk, 6)
	decr := poseidon.NewDecryptor(params, sk)

	fmt.Println("building bootstrapper (DFT transforms + rotation keys)...")
	boot, err := poseidon.NewBootstrapper(params, enc, kgen, sk, poseidon.BootstrapConfig{K: 28})
	if err != nil {
		log.Fatal(err)
	}

	// A message at level 0: no multiplications left.
	msg := make([]complex128, params.Slots)
	for i := range msg {
		msg[i] = complex(math.Sin(float64(i)*0.05), math.Cos(float64(i)*0.11)) * 0.5
	}
	pt := enc.Encode(msg, 0, params.Scale)
	ct := encr.Encrypt(pt)
	fmt.Printf("before bootstrap: level %d (exhausted)\n", ct.Level)

	refreshed, err := boot.Bootstrap(ct)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i, v := range enc.Decode(decr.Decrypt(refreshed)) {
		if e := cmplx.Abs(v - msg[i]); e > worst {
			worst = e
		}
	}
	fmt.Printf("after bootstrap:  level %d, max slot error %.2e (~%.1f bits)\n",
		refreshed.Level, worst, -math.Log2(worst))

	// The refreshed ciphertext supports further multiplication.
	ev := boot.Evaluator()
	sq := ev.Rescale(ev.MulRelin(refreshed, refreshed))
	worst = 0
	for i, v := range enc.Decode(decr.Decrypt(sq)) {
		if e := cmplx.Abs(v - msg[i]*msg[i]); e > worst {
			worst = e
		}
	}
	fmt.Printf("post-refresh squaring works: level %d, max error %.2e\n", sq.Level, worst)

	// The accelerator model prices the full-scale version of this pipeline.
	model, err := poseidon.NewModel(poseidon.U280(), poseidon.PaperParams())
	if err != nil {
		log.Fatal(err)
	}
	rep := poseidon.Simulate(model, poseidon.DefaultEnergy(),
		poseidon.BenchmarkPackedBoot(poseidon.PaperWorkloadSpec()))
	fmt.Printf("\nmodeled packed bootstrapping at N=2^16 on the U280: %.1f ms (paper: 127.45 ms)\n",
		rep.TotalTime*1e3)
}
