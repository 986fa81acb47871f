package telemetry

import (
	"math/bits"
	randv2 "math/rand/v2"
	"sync/atomic"
)

// Log-bucketed latency histogram with lock-free sharded counters.
//
// Bucketing is HDR-style: nanosecond values below 8 get their own bucket
// (indices 0–7); above that, each power-of-two octave is split into 8 linear
// sub-buckets, so relative quantile error is bounded by 1/8 of the value.
// 320 buckets cover up to ~2^41 ns (≈ 36 minutes); anything larger lands in
// the overflow bucket. Boundaries are pure bit arithmetic — no float math,
// no search — so Observe is a handful of instructions plus three atomic
// adds.
//
// Sharding: each histogram holds histShards independent counter banks and a
// recorder picks one with a per-call cheap random draw (runtime fastrand via
// math/rand/v2 — no lock, no goroutine state). Concurrent recorders
// therefore mostly touch different cache lines; readers merge all shards
// into one view at snapshot time. Totals are exact — only the instantaneous
// cross-shard view is approximate.

const (
	histSubBits = 3
	histSub     = 1 << histSubBits // 8 sub-buckets per octave

	// NumBuckets is the bucket count of every latency histogram: the linear
	// [0,8) range plus 8 sub-buckets for each of 39 octaves.
	NumBuckets = histSub * 40

	histShards = 4
)

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	h := bits.Len64(ns) - 1 // position of the highest set bit, ≥ 3
	idx := (h-2)*histSub + int((ns>>(uint(h)-histSubBits))&(histSub-1))
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketLow returns the inclusive lower nanosecond boundary of bucket i.
func BucketLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	h := i/histSub + 2
	sub := uint64(i % histSub)
	return (histSub + sub) << uint(h-histSubBits)
}

// BucketHigh returns the exclusive upper nanosecond boundary of bucket i
// (the lower boundary of bucket i+1).
func BucketHigh(i int) uint64 {
	if i+1 >= NumBuckets {
		return 1 << 63 // overflow bucket is unbounded in practice
	}
	return BucketLow(i + 1)
}

// histShard is one counter bank. The head counters share a cache line with
// nothing hot from a neighboring shard thanks to the trailing bucket array.
type histShard struct {
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
	_     [5]uint64 // pad the head counters away from the next shard's tail
	bkt   [NumBuckets]atomic.Uint64
}

// Histogram is a concurrent-safe log-bucketed latency histogram.
type Histogram struct {
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns uint64) {
	s := &h.shards[randv2.Uint32()&(histShards-1)]
	s.count.Add(1)
	s.sum.Add(ns)
	s.bkt[bucketOf(ns)].Add(1)
	for {
		m := s.max.Load()
		if ns <= m || s.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// HistSnapshot is a merged, immutable view of a histogram.
type HistSnapshot struct {
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
	Buckets [NumBuckets]uint64
}

// Snapshot merges the shards into one consistent-enough view (each counter
// is read atomically; cross-counter skew is bounded by in-flight Observes).
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	for i := range h.shards {
		s := &h.shards[i]
		out.Count += s.count.Load()
		out.SumNs += s.sum.Load()
		if m := s.max.Load(); m > out.MaxNs {
			out.MaxNs = m
		}
		for b := range s.bkt {
			out.Buckets[b] += s.bkt[b].Load()
		}
	}
	return out
}

// Merge adds another snapshot's samples into this one.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNs += o.SumNs
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
	for b := range s.Buckets {
		s.Buckets[b] += o.Buckets[b]
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds by linear
// interpolation inside the containing bucket. q ≥ 1 returns the exact
// tracked maximum; an empty snapshot returns 0.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.MaxNs)
	}
	if q < 0 {
		q = 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for b := range s.Buckets {
		c := float64(s.Buckets[b])
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			frac := (rank - cum) / c
			lo, hi := float64(BucketLow(b)), float64(BucketHigh(b))
			if m := float64(s.MaxNs); hi > m && m >= lo {
				hi = m // tighten the tail bucket with the exact max
			}
			v := lo + frac*(hi-lo)
			if m := float64(s.MaxNs); v > m {
				v = m
			}
			return v
		}
		cum += c
	}
	return float64(s.MaxNs)
}

// MeanNs returns the exact mean in nanoseconds (sums are tracked exactly).
func (s *HistSnapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}
