package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Run shape. A run's measured time is split into segments and every timed
// statistic is the median of the per-segment values. On a shared host a
// noisy neighbour slows the program for seconds at a time; with sixteen
// segments the median holds until half of the run is affected, where four
// segments gave way at a quarter. Every segment sits between two
// calibrations (calib.go) and is reported at reference speed.
const (
	segments      = 16
	smokeSegments = 4 // -smoke: enough to exercise the per-segment path
	warmMinOps    = 2
	warmMin       = time.Second

	// setup_s is the median of at least setupMin complete set-ups; a
	// set-up too short to repeat within setupBudget is run again, up to
	// setupMax times, so a 70 ms keygen is not judged on three samples.
	setupMin    = 3
	setupMax    = 9
	setupBudget = 1500 * time.Millisecond
)

// runConfig is one invocation's knobs: the seed, the measured seconds, and
// smoke mode (tiny rings, for tests).
type runConfig struct {
	seed    int64
	seconds float64
	smoke   bool
}

func (c runConfig) env() env { return env{seed: c.seed, smoke: c.smoke} }

func (c runConfig) segments() int {
	if c.smoke {
		return smokeSegments
	}
	return segments
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (c runConfig) segment() time.Duration { return secs(c.seconds / float64(c.segments())) }

func (c runConfig) warmUp() time.Duration {
	if c.smoke {
		return c.segment()
	}
	return warmMin
}

// metricValue is one reported number. Segments holds the per-segment (or
// per-set-up) values the reported median was taken over, when there are
// any; `compare` reads its quartiles from them.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

// passResult is what one pass over one workload produced. Metrics holds what
// the pass measured: a per-layer metric that belongs to another workload or
// rung is absent here and reads 0 in the driver's result line.
type passResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"` // errors + non-200 + refusals + validation mismatches
	Samples   int                    `json:"samples"`
	Validated int                    `json:"validated"`
	Metrics   map[string]metricValue `json:"metrics"`
	Wall      *wallClock             `json:"wall_clock,omitempty"`
	Ledgers   []ledger               `json:"ledgers,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// wallClock is what the untraced pass read off the clock before scaling to
// reference speed: the medians of the same per-segment and per-set-up values,
// and the median host speed over the segments (1 = the quiet reference box).
type wallClock struct {
	HostSpeed float64 `json:"host_speed"`
	SetupS    float64 `json:"setup_s"`
	OpP50Ms   float64 `json:"op_p50_ms"`
	OpsPerS   float64 `json:"ops_per_s"`
}

// setUp runs the workload's complete set-up at least atLeast times and, when
// it is short, again until budget has passed or setupMax is reached. It
// returns the last instance with every set-up's duration.
func setUp(def workloadDef, e env, atLeast int, budget time.Duration) (instance, []float64, error) {
	var times []float64
	var inst instance
	for start := time.Now(); len(times) < atLeast || (len(times) < setupMax && time.Since(start) < budget); {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// warmUp runs untimed ops until both minimums are met, then validates and
// discards what they produced: caches fill, arenas reach steady state, lazy
// plans get built.
func warmUp(inst instance, d time.Duration) {
	ops := 0
	for start := time.Now(); ops < warmMinOps || time.Since(start) < d; {
		r := inst.runSegment(d, nil)
		ops += len(r.latMs)
		if r.attempted == 0 || r.failed == r.attempted {
			break // nothing completes; the timed segments will report it
		}
	}
	inst.validate()
}

// addSegment folds one segment into the running totals and returns its p50
// and throughput.
func (p *passResult) addSegment(r segResult, v validation) (p50, perS float64) {
	p.Attempted += r.attempted
	p.Failed += r.failed + v.bad
	p.Samples += len(r.latMs)
	p.Validated += v.checked
	return median(r.latMs), float64(len(r.latMs)) / r.wall.Seconds()
}

// runUntraced is the end-to-end pass: repeated set-up, warm-up, the timed
// segments, validation with the clock stopped, heap after a collection.
func runUntraced(def workloadDef, cfg runConfig, log io.Writer) (*passResult, error) {
	budget := setupBudget
	if cfg.smoke {
		budget = 0
	}
	inst, wallSetups, err := setUp(def, cfg.env(), setupMin, budget)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	warmUp(inst, cfg.warmUp())

	res := &passResult{Workload: def.Name, Metrics: map[string]metricValue{}}
	var p50s, rates, wallP50s, wallRates, speeds []float64
	var val validation
	for s, start := 0, time.Now(); s < cfg.segments(); s++ {
		// A host slowed to a crawl must not run the driver out of time: past
		// 1.5x the measured seconds the pass ends with the segments it has,
		// at least half of them.
		if s >= cfg.segments()/2 && time.Since(start) > secs(1.5*cfg.seconds) {
			fmt.Fprintf(log, "  stopping after %d of %d segments: %.1fs measured\n", s, cfg.segments(), time.Since(start).Seconds())
			break
		}
		before := calibrate()
		r := inst.runSegment(cfg.segment(), nil)
		speed := hostSpeed(before, calibrate())
		v := inst.validate()
		val.merge(v)
		p50, rate := res.addSegment(r, v)
		wallP50s, wallRates, speeds = append(wallP50s, p50), append(wallRates, rate), append(speeds, speed)
		p50s, rates = append(p50s, p50*speed), append(rates, rate/speed)
		fmt.Fprintf(log, "  segment %d: %d ops in %.2fs, p50 %.3f ms, %.2f ops/s, host speed %.2f, %d failed, %d validated\n",
			s, len(r.latMs), r.wall.Seconds(), p50, rate, speed, r.failed+v.bad, v.checked)
	}
	heap := liveHeapMB(inst)
	res.Wall = &wallClock{HostSpeed: median(speeds), SetupS: median(wallSetups), OpP50Ms: median(wallP50s), OpsPerS: median(wallRates)}
	fmt.Fprintf(log, "  wall clock: host speed %.3f of reference, setup %.4f s, op p50 %.4f ms, %.4f ops/s\n",
		res.Wall.HostSpeed, res.Wall.SetupS, res.Wall.OpP50Ms, res.Wall.OpsPerS)

	res.Correct = res.Failed == 0 && res.Validated > 0 && res.Samples > 0
	set := func(name string, v float64, segs []float64) {
		spec, _ := findSpec(endToEnd, name)
		res.Metrics[name] = metricValue{Value: v, Unit: spec.Unit, Segments: segs}
	}
	// A set-up is too short to bracket on its own (two 15 ms calibrations
	// would carry their bursts into it), so it takes the run's host speed.
	setups := make([]float64, len(wallSetups))
	for i, t := range wallSetups {
		setups[i] = t * res.Wall.HostSpeed
	}
	set("setup_s", median(setups), setups)
	set("op_p50_ms", median(p50s), p50s)
	set("ops_per_s", median(rates), rates)
	set("precision_bits", precisionBits(val.maxErr), nil)
	set("live_heap_mb", heap, nil)
	return res, nil
}
