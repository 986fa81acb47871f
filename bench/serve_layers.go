package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/tracing"
)

// soloRequests is how many one-at-a-time requests price the scheduler floor.
const soloRequests = 21

// layersServer times the wire codec, one request at a time through the
// handler, and what is left of that request once decode, the bare rotation
// and the reply's marshalling are taken out: the queue, flush-timeout and
// wake-up cost every request pays.
func layersServer(out layerSink, b *serveBase) error {
	t := b.tenants[0]
	req := &server.EvalRequest{Tenant: t.name, Op: server.OpRotate, Steps: 1, Ct: t.cts[0]}
	body := server.EncodeEvalRequest(req)
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(t.cts[0]); err != nil {
		return err
	}
	reply, err := ct.MarshalBinary()
	if err != nil {
		return err
	}
	us := func(name string, fn func()) float64 {
		v := timeCall(fn) / 1e3
		out["server."+name+".us"] = v
		return v
	}
	dec := us("decode_req", func() { server.DecodeEvalRequest(body) })
	us("encode_req", func() { server.EncodeEvalRequest(req) })
	mar := us("ct_marshal", func() { ct.MarshalBinary() })
	unm := us("ct_unmarshal", func() { new(ckks.Ciphertext).UnmarshalBinary(t.cts[0]) })
	out["server.wire_bytes_in_per_req"] = float64(len(body))
	out["server.wire_bytes_out_per_req"] = float64(len(reply))

	ev := ckks.NewEvaluator(b.params, t.rlk, t.rtk)
	dst := ckks.NewCiphertext(b.params, ct.Level)
	rot := timeCall(func() { ev.RotateInto(dst, ct, 1) }) / 1e3

	solo := make([]float64, 0, soloRequests)
	for i := 0; i < soloRequests; i++ {
		code, _, lat := b.eval(nil, 0, body)
		if code != http.StatusOK {
			return fmt.Errorf("solo rotate answered %d", code)
		}
		solo = append(solo, lat)
	}
	out["server.solo_rotate.ms"] = median(solo)
	out["server.sched_floor_ms"] = median(solo) - (dec+unm+rot+mar)/1e3
	return nil
}

// openRates is the offered-load ladder, requests per second.
var openRates = []int{80, 160, 240}

// openLimitMs is the latency limit on p95 that defines the knee.
const openLimitMs = 100

type openRung struct {
	rate       int
	lat        []float64 // ms, from each request's due time
	failed     int
	lateMaxMs  float64 // how late the generator itself sent a burst
	backlogEnd int     // requests still in flight when the rung's schedule ended
}

// openLoop offers the serve_bursts mix on a schedule: a burst of four
// sibling rotations every 4/rate seconds whether or not earlier bursts have
// been answered. Each request is timed from when it was due, so a stall is
// charged to every request it delayed.
func (bi *burstsInst) openLoop(rate int, d time.Duration) openRung {
	r := openRung{rate: rate}
	interval := time.Duration(float64(len(burstSteps)) / float64(rate) * float64(time.Second))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight atomic.Int64
	picker := bi.tenants[0].rng
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		if late := float64(time.Since(due)) / 1e6; late > r.lateMaxMs {
			r.lateMaxMs = late
		}
		ti := picker.Intn(len(bi.tenants))
		ct := picker.Intn(tenantPool)
		for k := range burstSteps {
			wg.Add(1)
			inflight.Add(1)
			go func(k int) {
				defer wg.Done()
				code, _, _ := bi.eval(nil, 0, bi.bodies[ti][ct][k])
				lat := float64(time.Since(due)) / 1e6
				inflight.Add(-1)
				mu.Lock()
				if code == http.StatusOK {
					r.lat = append(r.lat, lat)
				} else {
					r.failed++
				}
				mu.Unlock()
			}(k)
		}
	}
	r.backlogEnd = int(inflight.Load())
	wg.Wait()
	return r
}

// layersOpenLoop runs the ladder and reports each rung's latency and the
// knee: the highest rate whose p95 meets the limit with no failed request
// and no backlog beyond a tenth of a second of arrivals.
func layersOpenLoop(out layerSink, bi *burstsInst, perRung time.Duration, log io.Writer) {
	knee := 0.0
	for _, rate := range openRates {
		r := bi.openLoop(rate, perRung)
		p50 := median(r.lat)
		p95, beyond := percentile(r.lat, 95)
		out[fmt.Sprintf("server.open.r%d.p50_ms", rate)] = p50
		out[fmt.Sprintf("server.open.r%d.p95_ms", rate)] = p95
		if r.lateMaxMs > out["server.open.late_ms_max"] {
			out["server.open.late_ms_max"] = r.lateMaxMs
		}
		backlogCap := rate / 10
		if backlogCap < 16 {
			backlogCap = 16
		}
		ok := r.failed == 0 && p95 <= openLimitMs && r.backlogEnd <= backlogCap
		if ok {
			knee = float64(rate)
		}
		fmt.Fprintf(log, "  open loop %3d req/s: %d answered, %d failed, p50 %.2f ms, p95 %.2f ms (%d samples beyond), backlog at end %d, generator late by at most %.2f ms, within limit %v\n",
			rate, len(r.lat), r.failed, p50, p95, beyond, r.backlogEnd, r.lateMaxMs, ok)
	}
	out["server.open.knee_rps"] = knee
}

// statsDelta is what the server counted between two Stats snapshots.
func statsDelta(out layerSink, workload string, before, after server.Stats) {
	var jobs, batched, batches float64
	for i := range after.Occupancy {
		n := float64(after.Occupancy[i])
		if i < len(before.Occupancy) {
			n -= float64(before.Occupancy[i])
		}
		jobs += n * float64(i)
		batches += n
		if i >= 2 {
			batched += n * float64(i)
		}
	}
	p := "server." + workload + "."
	if batches > 0 {
		out[p+"mean_batch"] = jobs / batches
	}
	if jobs > 0 {
		out[p+"batched_frac"] = batched / jobs
		out[p+"hoist_shared_per_req"] = float64(after.HoistShared-before.HoistShared) / jobs
	}
	out[p+"rejected"] = float64(after.Rejected - before.Rejected)
}

// stageMedians reports the median duration of the stages the server's own
// tracer recorded, and the 5th percentile of how much of each request those
// stages cover.
func stageMedians(out layerSink, workload string, traces []*tracing.Finished) {
	stages := map[string][]float64{}
	var coverage []float64
	for _, f := range traces {
		if f.Status != http.StatusOK {
			continue
		}
		coverage = append(coverage, f.Coverage())
		for _, sp := range f.Spans[1:] {
			if sp.Parent == 1 {
				stages[sp.Name] = append(stages[sp.Name], float64(sp.DurNs)/1e6)
			}
		}
	}
	p := "server." + workload + "."
	for _, name := range []string{"queue", "exec", "deliver", "encode"} {
		out[p+name+"_ms"] = median(stages[name])
	}
	out[p+"coverage_p05"], _ = percentile(coverage, 5)
}
