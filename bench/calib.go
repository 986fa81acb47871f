package main

import (
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// The reference box is a shared host: for seconds to minutes at a time the
// neighbours take cycles, cache and memory bandwidth, and every timing of
// the same binary on the same inputs reads up to 45 % slower, the fastest op
// of a run included (README.md, "How steady the numbers are"). No statistic
// taken inside a run removes that, so the three gated timings (setup_s,
// op_p50_ms, ops_per_s) are reported at reference speed: a fixed kernel of
// the harness's own is timed right before and right after every segment, and
// the segment's figures are scaled by how much slower than calibRefMs the
// kernel ran; set-up times are scaled by the run's median. The kernel is not
// the program under test, so no change to the program moves it; the
// wall-clock readings and the host speed are printed beside the scaled
// figures.

const (
	calibWords  = 8192 // 64 KB: one P13 limb, L2-resident like the NTTs
	calibPasses = 64
	calibReps   = 9

	// calibRefMs is what one calibration reads on the reference box (2
	// cores of a 2.1 GHz Xeon) when its neighbours are quiet. It only fixes
	// the unit: at this reading a reported millisecond is a wall-clock
	// millisecond.
	calibRefMs = 1.15

	calibQ = 0x7fffffffe0001 // 51-bit prime
	// calibQInv stands where -q^-1 mod 2^64 would: the kernel needs the
	// instruction mix of a Montgomery reduction, not its arithmetic.
	calibQInv = 0x7fdfffffe0001
)

var calibBufs [maxProcs][]uint64

func init() {
	for p := range calibBufs {
		buf := make([]uint64, calibWords)
		x := uint64(p + 1)
		for i := range buf {
			x = x*6364136223846793005 + 1442695040888963407
			buf[i] = x % calibQ
		}
		calibBufs[p] = buf
	}
}

// calibKernel is a Montgomery-style multiply-reduce sweep: the widening
// multiplies, low-half multiply and conditional subtract of the program's
// inner loops, over an array the size of one limb.
func calibKernel(buf []uint64) {
	w := uint64(0x1234567890abcd)
	for pass := 0; pass < calibPasses; pass++ {
		for i, a := range buf {
			hi, lo := bits.Mul64(a, w)
			m := lo * calibQInv
			h2, _ := bits.Mul64(m, calibQ)
			r := hi - h2 + calibQ
			if r >= calibQ {
				r -= calibQ
			}
			buf[i] = r
		}
	}
}

// calibrate runs the kernel on GOMAXPROCS goroutines at once, calibReps
// times, and returns the median wall time of one round in ms. A round ends
// when the slower goroutine does, as a limb-parallel phase of the evaluator
// does. It takes about 15 ms.
func calibrate() float64 {
	procs := min(runtime.GOMAXPROCS(0), maxProcs)
	rounds := make([]float64, calibReps)
	for r := range rounds {
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 1; p < procs; p++ {
			wg.Add(1)
			go func(buf []uint64) {
				defer wg.Done()
				calibKernel(buf)
			}(calibBufs[p])
		}
		calibKernel(calibBufs[0])
		wg.Wait()
		rounds[r] = float64(time.Since(t0)) / 1e6
	}
	return median(rounds)
}

// hostSpeed is how fast the host ran over a stretch bracketed by two
// calibrations, as a fraction of reference speed: 0.7 means a stretch that
// took 100 ms would have taken 70 ms on the quiet reference box.
func hostSpeed(before, after float64) float64 {
	return calibRefMs / ((before + after) / 2)
}
