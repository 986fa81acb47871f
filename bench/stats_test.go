package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One noisy segment out of four cannot move the median far: it
		// lands between the two middle values of the quiet ones.
		{[]float64{70, 71, 72, 300}, 71.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 5}, 1, 10},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates, as Python does
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if v, beyond := percentile(vs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(vs, 99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond, want 99 with 1", v, beyond)
	}
	if v, beyond := percentile([]float64{5, 5, 5, 9}, 50); v != 5 || beyond != 1 {
		t.Errorf("p50 with ties = %v with %d beyond, want 5 with 1", v, beyond)
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
	if v, beyond := percentile([]float64{3}, 99); v != 3 || beyond != 0 {
		t.Errorf("percentile of one sample = %v, %d", v, beyond)
	}
}

func TestPairedMedianRatioIgnoresOneBadPair(t *testing.T) {
	a := []float64{102, 101, 500, 103, 102}
	b := []float64{100, 100, 100, 100, 100}
	if got := pairedMedianRatio(a, b); !near(got, 1.02) {
		t.Errorf("paired median ratio = %v, want 1.02", got)
	}
}

func TestPrecisionBits(t *testing.T) {
	if got := precisionBits(1.0 / 1024); !near(got, 10) {
		t.Errorf("precisionBits(2^-10) = %v", got)
	}
	if got := precisionBits(0); math.IsInf(got, 0) || got < 50 {
		t.Errorf("precisionBits(0) = %v, want a large finite number", got)
	}
}

func TestHostSpeedScalesAgainstTheReferenceReading(t *testing.T) {
	if got := hostSpeed(calibRefMs, calibRefMs); !near(got, 1) {
		t.Errorf("host speed at the reference reading = %v, want 1", got)
	}
	// Kernel twice as slow before, three times after: the stretch between ran
	// at 1/2.5 of reference speed.
	if got := hostSpeed(2*calibRefMs, 3*calibRefMs); !near(got, 0.4) {
		t.Errorf("host speed = %v, want 0.4", got)
	}
}

// The calibration kernel must do the same work on every call: its operands
// stay below the modulus however often it has run.
func TestCalibKernelKeepsItsOperandsReduced(t *testing.T) {
	buf := append([]uint64(nil), calibBufs[0]...)
	for i := 0; i < 3; i++ {
		calibKernel(buf)
		for j, v := range buf {
			if v >= calibQ {
				t.Fatalf("round %d: buf[%d] = %#x is not below the modulus", i, j, v)
			}
		}
	}
}
