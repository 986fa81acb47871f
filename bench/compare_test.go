package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Segments: []float64{v * 0.99, v, v, v * 1.01}}
	}
	wide := func(v float64) metricValue {
		return metricValue{Value: v, Segments: []float64{v * 0.7, v, v, v * 1.3}}
	}
	cases := []struct {
		name string
		spec metricSpec
		a, b metricValue
		want string
	}{
		{"within the bound", lower, tight(100), tight(105), verdictSame},
		{"slower by more than the bound", lower, tight(100), tight(115), verdictWorse},
		{"faster by more than the bound", lower, tight(100), tight(85), verdictBetter},
		{"throughput down", higher, tight(100), tight(85), verdictWorse},
		{"throughput up", higher, tight(100), tight(115), verdictBetter},
		{"spread wider than the bound", lower, wide(100), tight(105), verdictUnresolved},
		{"wide, but every segment slower", lower, wide(100), wide(300), verdictWorse},
		{"wide, but every segment faster", lower, wide(300), wide(100), verdictBetter},
		{"no segments, single values", lower, metricValue{Value: 100}, metricValue{Value: 104}, verdictSame},
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFailRatioCountsMissingAsFailed(t *testing.T) {
	if got := failRatio(nil); got != 1 {
		t.Errorf("missing pass: fail ratio %v, want 1", got)
	}
	if got := failRatio(&passResult{Attempted: 200, Failed: 1}); got != 0.005 {
		t.Errorf("fail ratio %v, want 0.005", got)
	}
}
