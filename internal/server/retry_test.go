package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/ckks"
)

// retryServer builds an EvalServer with job retry armed and one tenant
// registered, returning the server and the tenant.
func retryServer(t *testing.T, cfg Config) (*EvalServer, *testTenant) {
	t.Helper()
	params := newServeParams(t, 1)
	cfg.Params = params
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 4
	}
	if cfg.DegradeCooldown == 0 {
		cfg.DegradeCooldown = time.Minute
	}
	srv, err := NewEvalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	tt := newTestTenant(t, params, "alice", 300, []int{1}, false)
	tt.upload(t, srv)
	return srv, tt
}

// A job whose first executions fail with ErrIntegrity must be re-enqueued
// and succeed on a later attempt: the caller sees a valid result, the
// retry counters attribute the episode, and — critically — a recovered
// fault does not trip the degradation ladder.
func TestJobRetryRecoversTransientFailure(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 3, RetryBackoff: time.Millisecond})
	var fails atomic.Int32
	fails.Store(2) // first two executions fail, third succeeds
	srv.sched.testExec = func(j *job) error {
		if fails.Add(-1) >= 0 {
			return fmt.Errorf("%w: injected residue mismatch", ckks.ErrIntegrity)
		}
		return nil
	}

	z := randomVec(rand.New(rand.NewSource(7)), srv.params.Slots)
	ct, _, err := srv.Eval(&EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)})
	if err != nil {
		t.Fatalf("retried job failed: %v", err)
	}
	assertVecClose(t, tt.decrypt(ct), expected(OpRotate, z, nil, 1, 0), 1e-4, "recovered rotate")

	st := srv.Stats()
	if st.JobRetries != 2 || st.JobRecovered != 1 || st.JobUnrecovered != 0 {
		t.Fatalf("stats = retries %d recovered %d unrecoverable %d, want 2/1/0",
			st.JobRetries, st.JobRecovered, st.JobUnrecovered)
	}
	if st.GuardTrips != 0 || st.Mode != "batched" {
		t.Fatalf("recovered fault tripped the ladder: trips %d mode %s", st.GuardTrips, st.Mode)
	}
}

// A job that fails integrity on every attempt must exhaust the budget,
// answer with ErrIntegrity, count as unrecoverable, and trip the ladder
// exactly once.
func TestJobRetryExhaustionTripsLadder(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 3, RetryBackoff: time.Millisecond})
	var execs atomic.Int32
	srv.sched.testExec = func(j *job) error {
		execs.Add(1)
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}

	z := randomVec(rand.New(rand.NewSource(8)), srv.params.Slots)
	_, _, err := srv.Eval(&EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)})
	if !errors.Is(err, ckks.ErrIntegrity) {
		t.Fatalf("got %v, want ErrIntegrity after exhaustion", err)
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("job executed %d times, want 3 (MaxJobAttempts)", got)
	}
	st := srv.Stats()
	if st.JobRetries != 2 || st.JobRecovered != 0 || st.JobUnrecovered != 1 {
		t.Fatalf("stats = retries %d recovered %d unrecoverable %d, want 2/0/1",
			st.JobRetries, st.JobRecovered, st.JobUnrecovered)
	}
	if st.GuardTrips != 1 || st.Mode != "serial" {
		t.Fatalf("unrecoverable job must trip once: trips %d mode %s", st.GuardTrips, st.Mode)
	}
}

// With retries off (the default), the first integrity failure answers and
// trips immediately — the pre-recovery contract, unchanged.
func TestJobRetryDisabledFailsFast(t *testing.T) {
	srv, tt := retryServer(t, Config{})
	var execs atomic.Int32
	srv.sched.testExec = func(j *job) error {
		execs.Add(1)
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}
	z := randomVec(rand.New(rand.NewSource(9)), srv.params.Slots)
	_, _, err := srv.Eval(&EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)})
	if !errors.Is(err, ckks.ErrIntegrity) {
		t.Fatalf("got %v, want ErrIntegrity", err)
	}
	if execs.Load() != 1 {
		t.Fatalf("job executed %d times with retries off, want 1", execs.Load())
	}
	if st := srv.Stats(); st.JobRetries != 0 || st.GuardTrips != 1 {
		t.Fatalf("stats = %+v, want no retries and one trip", st)
	}
}

// An expired context must abandon the request: EvalCtx returns the
// deadline error while the retry backoff would still be pending, and the
// HTTP layer maps it to 504.
func TestEvalCtxDeadlineAbandonsRetry(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 5, RetryBackoff: 200 * time.Millisecond})
	srv.sched.testExec = func(j *job) error {
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}
	z := randomVec(rand.New(rand.NewSource(10)), srv.params.Slots)
	req := &EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)}

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := srv.EvalCtx(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("EvalCtx held the caller %v past a 40ms deadline", el)
	}
	if srv.Stats().Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", srv.Stats().Timeouts)
	}
	if httpStatus(err) != http.StatusGatewayTimeout {
		t.Fatalf("deadline error maps to %d, want 504", httpStatus(err))
	}
}

// Over HTTP, the X-Poseidon-Deadline header bounds the request and expiry
// surfaces as 504; the typed client maps it back to DeadlineExceeded.
func TestHTTPDeadlineReturns504(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 5, RetryBackoff: 300 * time.Millisecond})
	srv.sched.testExec = func(j *job) error {
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	z := randomVec(rand.New(rand.NewSource(11)), srv.params.Slots)
	req := &EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)}

	cl := &Client{Base: hs.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := cl.EvalCtx(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded through the client", err)
	}

	// A malformed deadline header is a 400, not a hang.
	hreq, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/eval", nil)
	hreq.Header.Set("X-Poseidon-Deadline", "soon")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", resp.StatusCode)
	}
}

// A guard trip during cooldown decay restarts the clock: the ladder must
// hold the new rung for a full cooldown from the fresh trip, not resume
// the interrupted countdown.
func TestTripDuringDecayRestartsCooldown(t *testing.T) {
	const cool = 200 * time.Millisecond
	s := bareScheduler(Config{DegradeCooldown: cool})
	advance := scriptClock(s)
	s.tripGuard()
	s.tripGuard() // batched → serial → shed
	if m := s.currentMode(); m != modeShed {
		t.Fatalf("after two trips: %s, want shed", modeName(m))
	}
	advance(cool + 50*time.Millisecond) // one cooldown elapses: shed → serial
	if m := s.currentMode(); m != modeSerial {
		t.Fatalf("after one cooldown: %s, want serial", modeName(m))
	}
	s.tripGuard() // mid-decay trip: serial → shed, cooldown restarts now
	if m := s.currentMode(); m != modeShed {
		t.Fatalf("after mid-decay trip: %s, want shed", modeName(m))
	}
	advance(cool / 2) // half the fresh cooldown: must still be shed
	if m := s.currentMode(); m != modeShed {
		t.Fatalf("cooldown did not restart: %s at half-cooldown, want shed", modeName(m))
	}
	advance(cool/2 + 50*time.Millisecond) // fresh cooldown complete: one rung down
	if m := s.currentMode(); m != modeSerial {
		t.Fatalf("after full fresh cooldown: %s, want serial", modeName(m))
	}
}
