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
	srv, err := NewEvalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	tt := newTestTenant(t, params, "alice", 300, []int{1}, false)
	tt.upload(t, srv)
	return srv, tt
}

// holdUntilExpired is a testExec that keeps the job on its lane until the
// request's context is done, then fails it with ErrIntegrity — a retry the
// job could take only if it outlived its caller.
func holdUntilExpired(execs *atomic.Int32) func(*job) error {
	return func(j *job) error {
		execs.Add(1)
		<-j.ctx.Done()
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}
}

// A job whose first executions fail with ErrIntegrity must run again on its
// lane and succeed on a later attempt: the caller sees a valid result and
// the retry counters attribute the episode — a recovered fault is not
// counted unrecoverable.
func TestJobRetryRecoversTransientFailure(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 3})
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
}

// A job that fails integrity on every attempt must exhaust the budget,
// answer with ErrIntegrity and count as unrecoverable once — and the server
// keeps serving: the next request is admitted and answered.
func TestJobRetryExhaustionTripsLadder(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 3})
	var execs atomic.Int32
	srv.sched.testExec = func(j *job) error {
		execs.Add(1)
		return fmt.Errorf("%w: latched fault", ckks.ErrIntegrity)
	}

	z := randomVec(rand.New(rand.NewSource(8)), srv.params.Slots)
	req := &EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)}
	_, _, err := srv.Eval(req)
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

	srv.sched.testExec = nil
	ct, batch, err := srv.Eval(req)
	if err != nil {
		t.Fatalf("request after an unrecoverable job: %v", err)
	}
	if batch != 1 {
		t.Fatalf("request after an unrecoverable job rode a unit of %d, want 1", batch)
	}
	assertVecClose(t, tt.decrypt(ct), expected(OpRotate, z, nil, 1, 0), 1e-4, "rotate after exhaustion")
}

// With retries off (the default), the first integrity failure answers
// immediately and counts as unrecoverable — the pre-recovery contract.
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
	if st := srv.Stats(); st.JobRetries != 0 || st.JobUnrecovered != 1 {
		t.Fatalf("stats = %+v, want no retries and one unrecoverable job", st)
	}
}

// An expired context must abandon the request: EvalCtx returns the
// deadline error while the job is still on its lane, the HTTP layer maps it
// to 504, and the job — failing only once its caller is gone — is not run
// again.
func TestEvalCtxDeadlineAbandonsRetry(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 5})
	var execs atomic.Int32
	srv.sched.testExec = holdUntilExpired(&execs)
	z := randomVec(rand.New(rand.NewSource(10)), srv.params.Slots)
	req := &EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: tt.encryptBytes(t, z)}

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	_, _, err := srv.EvalCtx(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if srv.Stats().Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", srv.Stats().Timeouts)
	}
	if httpStatus(err) != http.StatusGatewayTimeout {
		t.Fatalf("deadline error maps to %d, want 504", httpStatus(err))
	}
	srv.Close() // the lane finishes the abandoned job
	if got, retries := execs.Load(), srv.Stats().JobRetries; got != 1 || retries != 0 {
		t.Fatalf("abandoned job ran %d times with %d retries, want 1 and 0", got, retries)
	}
}

// Over HTTP, the X-Poseidon-Deadline header bounds the request and expiry
// surfaces as 504; the typed client maps it back to DeadlineExceeded.
func TestHTTPDeadlineReturns504(t *testing.T) {
	srv, tt := retryServer(t, Config{MaxJobAttempts: 5})
	var execs atomic.Int32
	srv.sched.testExec = holdUntilExpired(&execs)
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
