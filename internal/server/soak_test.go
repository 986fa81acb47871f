package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/fault"
	"poseidon/internal/telemetry"
)

// soakTenant is one tenant's share of a soak: n seeded random requests sent
// through eval, every answer decrypt-validated against a plaintext model
// under the tenant's own secret key, so cross-tenant state bleed (wrong key,
// wrong arena buffer, wrong batch slot) or a corrupted result surfaces as a
// mismatch, not a silent wrong answer. again sees each error eval returns and
// says whether to resend; it returns how many answers validated.
func soakTenant(t *testing.T, tt *testTenant, seed int64, n int,
	eval func(*EvalRequest) (*ckks.Ciphertext, error), again func(attempt int, err error) bool) (validated int) {
	rng := rand.New(rand.NewSource(seed))
	slots := tt.params.Slots
	ops := []Op{OpAdd, OpSub, OpMulRelin, OpRotate, OpConjugate, OpNegate, OpInnerSum}
	for r := 0; r < n; r++ {
		op := ops[rng.Intn(len(ops))]
		a := randomVec(rng, slots)
		var b []complex128
		req := &EvalRequest{Tenant: tt.name, Op: op, Ct: tt.encryptBytes(t, a)}
		switch {
		case op.twoOperand():
			b = randomVec(rng, slots)
			req.Ct2 = tt.encryptBytes(t, b)
		case op == OpRotate:
			req.Steps = []int{1, 2, 4}[rng.Intn(3)]
		case op == OpInnerSum:
			req.Width = []int{2, 4, 8}[rng.Intn(3)]
		}
		ct, err := eval(req)
		for attempt := 0; err != nil && again(attempt, err); attempt++ {
			ct, err = eval(req)
		}
		if err != nil {
			continue
		}
		tol := 1e-4
		if op == OpMulRelin || op == OpInnerSum {
			tol = 1e-3
		}
		if e := maxErr(tt.decrypt(ct), expected(op, a, b, req.Steps, req.Width)); e > tol {
			t.Errorf("%s: req %d %s: decrypt mismatch, max error %g > %g — a wrong plaintext left the server",
				tt.name, r, op, e, tol)
			continue
		}
		validated++
	}
	return validated
}

// The multi-tenant soak: 32 tenants hammer one EvalServer concurrently —
// 5k+ decrypt-validated requests (soakTenant) through a shared parameter
// set, arena, and worker pool, with a 16-entry key registry forcing constant
// eviction churn and key re-upload. Run under -race in CI; integrity guards
// are armed throughout.
func TestSoakMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants       = 32
		reqsPerTenant = 157 // 32 × 157 = 5024 requests
		registryCap   = 16  // < tenants: continuous eviction + re-upload
	)
	params := newServeParams(t, 2)
	srv, err := NewEvalServer(Config{
		Params:      params,
		MaxBatch:    8,
		QueueDepth:  256,
		RegistryCap: registryCap,
		GuardSeed:   0xB0A7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fixtures := make([]*testTenant, tenants)
	for i := range fixtures {
		fixtures[i] = newTestTenant(t, params, fmt.Sprintf("tenant-%02d", i), int64(1000+i*17), []int{1, 2, 4}, true)
		fixtures[i].upload(t, srv)
	}

	var validated atomic.Uint64
	var reuploads atomic.Uint64
	var wg sync.WaitGroup
	for ti := range fixtures {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tt := fixtures[ti]
			eval := func(req *EvalRequest) (*ckks.Ciphertext, error) {
				ct, batch, err := srv.Eval(req)
				if err == nil && batch < 1 {
					t.Errorf("%s: batch occupancy %d", tt.name, batch)
				}
				return ct, err
			}
			again := func(attempt int, err error) bool {
				switch {
				case errors.Is(err, ErrUnknownTenant):
					// Evicted by the churn: re-upload and retry — the
					// client-visible cost of the LRU cap.
					if err := srv.RegisterKeys(&KeyUpload{Tenant: tt.name, Relin: tt.rlkBytes, Rotations: tt.rtkBytes}); err != nil {
						t.Errorf("%s: re-upload: %v", tt.name, err)
						return false
					}
					reuploads.Add(1)
					return true
				case errors.Is(err, ErrOverloaded) && attempt <= 1000:
					time.Sleep(time.Millisecond)
					return true
				}
				t.Errorf("%s: after %d attempts: %v", tt.name, attempt+1, err)
				return false
			}
			validated.Add(uint64(soakTenant(t, tt, int64(9000+ti), reqsPerTenant, eval, again)))
		}(ti)
	}

	// A stats poller races the request path the way a metrics scraper
	// would in production.
	stop := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				_ = srv.Stats()
			}
		}
	}()

	wg.Wait()
	close(stop)
	pollWg.Wait()

	if got := validated.Load(); got != tenants*reqsPerTenant {
		t.Fatalf("validated %d responses, want %d — some requests vanished", got, tenants*reqsPerTenant)
	}
	st := srv.Stats()
	if st.JobUnrecovered != 0 {
		t.Fatalf("integrity guards failed %d jobs during the soak", st.JobUnrecovered)
	}
	if st.Evictions == 0 {
		t.Fatal("no registry evictions: the soak never exercised churn")
	}
	if st.ResidentKeys > registryCap {
		t.Fatalf("resident keys %d exceed cap %d after drain", st.ResidentKeys, registryCap)
	}
	t.Logf("soak: %d validated, %d re-uploads, %d evictions, %d pinned skips, mean batch %.2f, batched frac %.2f",
		validated.Load(), reuploads.Load(), st.Evictions, st.PinnedSkips, st.MeanBatch, st.BatchedFrac)
}

// TestChaosSoakSiteHBM is the soak under sustained fault pressure at the one
// site it arms, fault.SiteHBM — a bit flipped in a sealed operand as an
// evaluator reads it back — through the whole stack: HTTP handler, typed
// client with its 503 retry (the backoff wait replaced by a yield), batching
// scheduler running a failed job again in place, guarded evaluators with op
// re-execution. No rung waits on a clock. Whenever nothing is pending, the
// request loop arms the next fault within a window of read-backs: most decay
// after 0–2 further reads, so some clear in the op retry and some need the
// job retry; a bounded few are latched, must exhaust both and be answered as
// integrity errors. Counts only: zero wrong plaintexts for SiteHBM faults
// (soakTenant reports one; no other site is attacked, so nothing is claimed
// for one), ≥ 99 % of requests eventually validated, recovery at op and at
// job level and the unrecoverable path all exercised, and nothing refused —
// a fault is answered by running again, never by shedding load.
func TestChaosSoakSiteHBM(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants       = 8
		reqsPerTenant = 125
		total         = tenants * reqsPerTenant
		window        = 128 // HBM visits a pending fault fires within
		stickyEvery   = 16  // every 16th arming latches, up to maxSticky
		maxSticky     = 6   // ≈ 1 in 5 lands on an op's intermediate and recovers
	)
	params := newServeParams(t, 2)
	inj := fault.NewInjector(79)
	params.RingQ.SetFaultInjector(inj)
	params.RingP.SetFaultInjector(inj)
	col := telemetry.NewCollector("chaos")
	srv, _, cli := newHTTPFixture(t, Config{
		Params:         params,
		MaxBatch:       8,
		RegistryCap:    tenants,
		GuardSeed:      78,
		OpMaxAttempts:  3,
		MaxJobAttempts: 3,
		Collector:      col,
	})
	cli.Retry = RetryPolicy{MaxAttempts: 8}
	cli.sleep = func(context.Context, time.Duration) error { runtime.Gosched(); return nil }

	var armMu sync.Mutex
	armings, stickies := 0, 0
	eval := func(req *EvalRequest) (*ckks.Ciphertext, error) {
		armMu.Lock()
		if !inj.Pending() {
			armings++
			if armings%stickyEvery == 0 && stickies < maxSticky {
				stickies++
				inj.ArmWithin(fault.SiteHBM, fault.BitFlip, window, fault.Sticky, 0)
			} else {
				inj.ArmWithin(fault.SiteHBM, fault.BitFlip, window, fault.Transient, armings%3)
			}
		}
		armMu.Unlock()
		ct, _, err := cli.Eval(req)
		return ct, err
	}
	var validated, integrity atomic.Uint64
	failed := func(_ int, err error) bool {
		t.Logf("request failed: %v", err)
		if strings.Contains(err.Error(), ckks.ErrIntegrity.Error()) {
			integrity.Add(1)
		}
		return false // the client already spent its retry budget
	}
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tt := newTestTenant(t, params, fmt.Sprintf("chaos-%02d", ti), int64(2000+ti*13), []int{1, 2, 4}, true)
		tt.upload(t, srv)
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			validated.Add(uint64(soakTenant(t, tt, int64(9500+ti), reqsPerTenant, eval, failed)))
		}(ti)
	}
	wg.Wait()
	inj.Disarm()

	st, ist := srv.Stats(), inj.Stats()
	var opRecovered uint64
	if rec := col.Snapshot().Recovery; rec != nil {
		opRecovered = rec.Recovered
	}
	t.Logf("chaos: %d/%d validated, %d integrity errors; %d injected (%d sticky armed), %d healed; recovered %d op-level + %d job-level, %d unrecoverable, %d rejected",
		validated.Load(), total, integrity.Load(), ist.Injected, stickies, ist.Healed,
		opRecovered, st.JobRecovered, st.JobUnrecovered, st.Rejected)
	if validated.Load()*100 < total*99 {
		t.Fatalf("eventual success %d/%d < 99%%", validated.Load(), total)
	}
	if ist.Injected == 0 {
		t.Fatal("no faults injected: the soak exercised nothing")
	}
	if opRecovered == 0 || st.JobRecovered == 0 {
		t.Fatalf("recovered %d op-level, %d job-level: want both retry layers exercised", opRecovered, st.JobRecovered)
	}
	if st.Rejected != 0 {
		t.Fatalf("%d requests refused under fault pressure, want 0", st.Rejected)
	}
	if st.JobUnrecovered == 0 || st.JobUnrecovered != integrity.Load() {
		t.Fatalf("%d jobs exhausted their retries, %d requests were answered ErrIntegrity: want equal and ≥ 1",
			st.JobUnrecovered, integrity.Load())
	}
}
