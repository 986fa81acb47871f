package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/tracing"
)

// bareScheduler builds a scheduler with no lane running, so a test can
// drive take and execUnit itself or start lanes over a backlog it chose.
func bareScheduler(cfg Config) *scheduler { return newScheduler(cfg.withDefaults(), nil) }

// fakeJob makes a dispatchable job no evaluator ever sees (tests that run it
// answer it from testExec): a rotation of the given input bytes for the
// given tenant entry, or — with a nil input — any other op.
func fakeJob(entry *tenantEntry, input []byte) *job {
	j := &job{entry: entry, done: make(chan jobResult, 1)}
	if input != nil {
		j.op = OpRotate
		j.setInput(input)
	}
	return j
}

// What one take removes from the queue, table-driven on a scheduler with no
// lane running: the head and its hoist siblings, everything else left in
// arrival order.
func TestCollectEdgeCases(t *testing.T) {
	a, b := &tenantEntry{name: "a"}, &tenantEntry{name: "b"}
	x, y := []byte("ciphertext x"), []byte("ciphertext y")
	rot := func(e *tenantEntry, in []byte) func() *job { return func() *job { return fakeJob(e, in) } }
	add := func() *job { return fakeJob(a, nil) }
	cases := []struct {
		name     string
		maxBatch int
		queue    []func() *job // enqueued in order
		wantUnit []int         // indices into queue, in unit order
		wantRest []int         // indices left queued, in queue order
	}{
		{
			name:     "siblings are gathered from anywhere in the queue",
			maxBatch: 8,
			queue:    []func() *job{rot(a, x), rot(a, y), add, rot(a, x), rot(b, y), rot(a, x)},
			wantUnit: []int{0, 3, 5}, wantRest: []int{1, 2, 4},
		},
		{
			name:     "max batch size caps collection",
			maxBatch: 4,
			queue:    []func() *job{rot(a, x), rot(a, x), rot(a, x), rot(a, x), rot(a, x), rot(a, x)},
			wantUnit: []int{0, 1, 2, 3}, wantRest: []int{4, 5},
		},
		{
			name:     "mismatch on second job yields a singleton",
			maxBatch: 8,
			queue:    []func() *job{rot(a, x), rot(a, y)},
			wantUnit: []int{0}, wantRest: []int{1},
		},
		{
			name:     "another tenant's identical bytes are not siblings",
			maxBatch: 8,
			queue:    []func() *job{rot(a, x), rot(b, x), rot(a, x)},
			wantUnit: []int{0, 2}, wantRest: []int{1},
		},
		{
			name:     "a non-rotation head is a singleton",
			maxBatch: 8,
			queue:    []func() *job{add, rot(a, x), add, rot(a, x)},
			wantUnit: []int{0}, wantRest: []int{1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := bareScheduler(Config{MaxBatch: tc.maxBatch, QueueDepth: 64})
			jobs := make([]*job, len(tc.queue))
			for i, mk := range tc.queue {
				jobs[i] = mk()
				if err := s.enqueue(jobs[i]); err != nil {
					t.Fatal(err)
				}
			}
			pick := func(idx []int) []*job {
				out := make([]*job, len(idx))
				for i, k := range idx {
					out[i] = jobs[k]
				}
				return out
			}
			if unit := s.take(); !slices.Equal(unit, pick(tc.wantUnit)) {
				t.Fatalf("unit has %d jobs, want queue positions %v in that order", len(unit), tc.wantUnit)
			}
			if !slices.Equal(s.queue, pick(tc.wantRest)) {
				t.Fatalf("%d jobs left queued, want positions %v in arrival order", len(s.queue), tc.wantRest)
			}
		})
	}
	t.Run("closed and drained returns nil", func(t *testing.T) {
		s := bareScheduler(Config{})
		s.enqueue(fakeJob(a, nil))
		s.qmu.Lock()
		s.closed = true
		s.qmu.Unlock()
		if unit := s.take(); len(unit) != 1 {
			t.Fatalf("closed queue with a backlog: took %d jobs, want the queued one", len(unit))
		}
		if unit := s.take(); unit != nil {
			t.Fatalf("closed and drained: took %d jobs, want nil", len(unit))
		}
	})
}

// Sibling matching is exact equality of the ciphertext bytes, not a digest:
// two rotations of one tenant that differ only in the last byte are not
// grouped, identical ones are, and identical bytes from two tenants are not.
func TestSiblingMatchIsExact(t *testing.T) {
	a, b := &tenantEntry{name: "a"}, &tenantEntry{name: "b"}
	ct := make([]byte, 131<<10)
	rand.New(rand.NewSource(5)).Read(ct)
	same := slices.Clone(ct)
	lastByte := slices.Clone(ct)
	lastByte[len(lastByte)-1] ^= 1

	s := bareScheduler(Config{MaxBatch: 8})
	head, twin := fakeJob(a, ct), fakeJob(a, same)
	differs, otherTenant := fakeJob(a, lastByte), fakeJob(b, same)
	for _, j := range []*job{head, differs, otherTenant, twin} {
		s.enqueue(j)
	}
	if unit := s.take(); !slices.Equal(unit, []*job{head, twin}) {
		t.Fatalf("unit of %d jobs, want the head and its byte-identical twin only", len(unit))
	}
	if !slices.Equal(s.queue, []*job{differs, otherTenant}) {
		t.Fatalf("%d jobs left queued, want the last-byte variant and the other tenant's copy", len(s.queue))
	}
}

// Lanes overlap: each of two jobs waits inside testExec for the other to
// have started, which can only happen if two lanes run them at once.
func TestLanesOverlap(t *testing.T) {
	s := bareScheduler(Config{})
	var started sync.WaitGroup
	started.Add(2)
	s.testExec = func(*job) error {
		started.Done()
		started.Wait()
		return errors.New("benign: not evaluated in this test")
	}
	s.start(make([]*tracing.EvalObserver, 2))
	defer s.stop()
	jobs := []*job{fakeJob(nil, nil), fakeJob(nil, nil)}
	for _, j := range jobs {
		if err := s.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d never answered: the two jobs did not run concurrently", i)
		}
	}
}

func TestEnqueueBackpressure(t *testing.T) {
	s := bareScheduler(Config{QueueDepth: 2})
	for i := 0; i < 2; i++ {
		if err := s.enqueue(fakeJob(nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.enqueue(fakeJob(nil, nil)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: %v, want ErrOverloaded", err)
	}
	s.take() // a lane taking a job makes room again
	if err := s.enqueue(fakeJob(nil, nil)); err != nil {
		t.Fatalf("queue with room: %v", err)
	}
	s.qmu.Lock()
	s.closed = true
	s.qmu.Unlock()
	if err := s.enqueue(fakeJob(nil, nil)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("closed queue: %v, want ErrOverloaded", err)
	}
}

// holdLanes parks every dispatch lane inside a negate request's testExec and
// returns the function that lets them go (and waits for those requests), so
// a test can queue a known backlog first: the units the lanes then take form
// from exactly that backlog, whatever the goroutine scheduler does. Jobs of
// any other op go to next (nil = evaluate normally).
func holdLanes(t *testing.T, srv *EvalServer, tt *testTenant, next func(*job) error) (release func()) {
	t.Helper()
	lanes := srv.params.Workers()
	gate := make(chan struct{})
	var parked, answered sync.WaitGroup
	parked.Add(lanes)
	srv.sched.testExec = func(j *job) error {
		if j.op == OpNegate {
			parked.Done()
			<-gate
			return nil
		}
		if next != nil {
			return next(j)
		}
		return nil
	}
	ct := tt.encryptBytes(t, make([]complex128, tt.params.Slots))
	for i := 0; i < lanes; i++ {
		answered.Add(1)
		go func() {
			defer answered.Done()
			if _, _, err := srv.Eval(&EvalRequest{Tenant: tt.name, Op: OpNegate, Ct: ct}); err != nil {
				t.Errorf("lane-holding request: %v", err)
			}
		}()
	}
	parked.Wait()
	return func() {
		close(gate)
		answered.Wait()
	}
}

// waitQueued returns once exactly n jobs wait for a lane.
func waitQueued(t *testing.T, srv *EvalServer, n int) {
	t.Helper()
	for limit := time.Now().Add(30 * time.Second); srv.sched.queued() != n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(limit) {
			t.Fatalf("%d jobs queued after 30s, want %d", srv.sched.queued(), n)
		}
	}
}

// rotation is one in-flight rotate request of a test: its outcome lands in
// ct / batch / err once wg is done.
type rotation struct {
	steps int
	ct    *ckks.Ciphertext
	batch int
	err   error
}

// rotateAll issues one rotation of ctBytes per entry of steps, concurrently,
// and returns them with the WaitGroup that completes when all are answered.
func rotateAll(srv *EvalServer, tenant string, ctBytes []byte, steps []int) ([]*rotation, *sync.WaitGroup) {
	rots := make([]*rotation, len(steps))
	wg := new(sync.WaitGroup)
	for i, st := range steps {
		r := &rotation{steps: st}
		rots[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ct, r.batch, r.err = srv.Eval(&EvalRequest{Tenant: tenant, Op: OpRotate, Steps: r.steps, Ct: ctBytes})
		}()
	}
	return rots, wg
}

// A guard trip in the middle of a hoist group, on two lanes, drops nothing:
// every member of the tripping group still gets its answer, in the group's
// unit — the right one, for all but the poisoned job. With the job retry off
// the poisoned member is answered ErrIntegrity; with MaxJobAttempts 2 it runs
// once more, in place, through its tenant's evaluator (a fresh
// decomposition) and decrypts correctly. Dispatch keeps no mode either way:
// rotations queued after the trip form a group again.
func TestGuardTripMidBatchDegradesWithoutDropping(t *testing.T) {
	for _, tc := range []struct {
		jobAttempts int
		poisoned    int // members answered ErrIntegrity
		retries     uint64
		recovered   uint64
	}{
		{jobAttempts: 1, poisoned: 1},
		{jobAttempts: 2, retries: 1, recovered: 1},
	} {
		t.Run(fmt.Sprintf("job_attempts=%d", tc.jobAttempts), func(t *testing.T) {
			params := newServeParams(t, 2)
			srv, err := NewEvalServer(Config{Params: params, MaxBatch: 8, QueueDepth: 16, GuardSeed: 5, MaxJobAttempts: tc.jobAttempts})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tt := newTestTenant(t, params, "alice", 110, []int{1, 2}, false)
			tt.upload(t, srv)
			z := randomVec(rand.New(rand.NewSource(111)), params.Slots)
			ctBytes := tt.encryptBytes(t, z)

			var rotationsRun atomic.Int32
			release := holdLanes(t, srv, tt, func(j *job) error {
				if rotationsRun.Add(1) == 3 { // the third member of the group, first run only
					return fmt.Errorf("%w: injected residue mismatch", ckks.ErrIntegrity)
				}
				return nil
			})
			rots, wg := rotateAll(srv, "alice", ctBytes, []int{1, 2, 1, 2, 1, 2})
			waitQueued(t, srv, len(rots))
			release()
			wg.Wait()

			poisoned := 0
			for i, r := range rots {
				if r.batch != len(rots) {
					t.Errorf("rotation %d rode a unit of %d, want the whole group of %d", i, r.batch, len(rots))
				}
				if errors.Is(r.err, ckks.ErrIntegrity) {
					poisoned++
					continue
				}
				if r.err != nil {
					t.Fatalf("rotation %d dropped by its sibling's trip: %v", i, r.err)
				}
				assertVecClose(t, tt.decrypt(r.ct), expected(OpRotate, z, nil, r.steps, 0), 1e-4, fmt.Sprintf("group member %d", i))
			}
			if poisoned != tc.poisoned {
				t.Fatalf("%d rotations answered ErrIntegrity, want %d", poisoned, tc.poisoned)
			}
			if got, want := int(rotationsRun.Load()), len(rots)+int(tc.retries); got != want {
				t.Fatalf("%d rotation runs, want %d: the poisoned member runs again only with the job retry on", got, want)
			}
			st := srv.Stats()
			if st.JobRetries != tc.retries || st.JobRecovered != tc.recovered || st.JobUnrecovered != uint64(tc.poisoned) {
				t.Fatalf("retries %d recovered %d unrecoverable %d, want %d/%d/%d",
					st.JobRetries, st.JobRecovered, st.JobUnrecovered, tc.retries, tc.recovered, tc.poisoned)
			}

			// Siblings queued after the trip form a group again, none dropped.
			release = holdLanes(t, srv, tt, nil)
			late, wg := rotateAll(srv, "alice", ctBytes, []int{1, 2, 1})
			waitQueued(t, srv, len(late))
			release()
			wg.Wait()
			for i, r := range late {
				if r.err != nil {
					t.Fatalf("post-trip rotation %d: %v", i, r.err)
				}
				if r.batch != len(late) {
					t.Fatalf("post-trip rotation %d rode a unit of %d, want the whole group of %d", i, r.batch, len(late))
				}
				assertVecClose(t, tt.decrypt(r.ct), expected(OpRotate, z, nil, r.steps, 0), 1e-4, fmt.Sprintf("post-trip rotation %d", i))
			}
		})
	}
}

// Same-input rotations queued together must share a single hoisted
// decomposition, and the shared path must agree with plain rotation.
func TestHoistSharingAcrossBatch(t *testing.T) {
	params := newServeParams(t, 2)
	srv, err := NewEvalServer(Config{Params: params, MaxBatch: 8, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tt := newTestTenant(t, params, "alice", 100, []int{1, 2}, false)
	tt.upload(t, srv)
	z := randomVec(rand.New(rand.NewSource(101)), params.Slots)

	release := holdLanes(t, srv, tt, nil)
	rots, wg := rotateAll(srv, "alice", tt.encryptBytes(t, z), []int{1, 1, 2, 2})
	waitQueued(t, srv, len(rots))
	release()
	wg.Wait()
	for i, r := range rots {
		if r.err != nil {
			t.Fatalf("rotate %d: %v", r.steps, r.err)
		}
		assertVecClose(t, tt.decrypt(r.ct), expected(OpRotate, z, nil, r.steps, 0), 1e-4,
			fmt.Sprintf("shared-hoist rotation %d (by %d)", i, r.steps))
	}
	if st := srv.Stats(); st.HoistGroups != 1 || st.HoistShared != 3 {
		t.Fatalf("groups=%d shared=%d, want the four siblings in one group sharing 3 decompositions (occupancy %v)",
			st.HoistGroups, st.HoistShared, st.Occupancy)
	}
}

// A hoist-group member whose context expired while it was queued is
// answered with that error and skipped — not rotated, sealed and delivered
// to nobody — and the hoist itself is skipped when fewer than two members
// are still wanted.
func TestHoistGroupSkipsExpiredMember(t *testing.T) {
	params := newServeParams(t, 1)
	srv, err := NewEvalServer(Config{Params: params, MaxBatch: 8, GuardSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tt := newTestTenant(t, params, "alice", 120, []int{1, 2, 4}, false)
	tt.upload(t, srv)
	z := randomVec(rand.New(rand.NewSource(121)), params.Slots)
	ctBytes := tt.encryptBytes(t, z)

	for _, tc := range []struct {
		name                   string
		live                   []int // steps of the siblings that stay wanted
		wantGroups, wantShared uint64
	}{
		{name: "two live siblings still share", live: []int{1, 2}, wantGroups: 1, wantShared: 1},
		{name: "one live sibling runs alone", live: []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Stats()
			var rotationsRun atomic.Int32
			release := holdLanes(t, srv, tt, func(*job) error { rotationsRun.Add(1); return nil })
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := make(chan error, 1)
			go func() {
				_, _, err := srv.EvalCtx(ctx, &EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: ctBytes})
				abandoned <- err
			}()
			waitQueued(t, srv, 1) // the doomed job heads the group
			rots, wg := rotateAll(srv, "alice", ctBytes, tc.live)
			waitQueued(t, srv, 1+len(rots))
			cancel()
			if err := <-abandoned; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sibling: %v, want context.Canceled", err)
			}
			release()
			wg.Wait()

			for _, r := range rots {
				if r.err != nil {
					t.Fatalf("live sibling (by %d): %v", r.steps, r.err)
				}
				if r.batch != 1+len(rots) {
					t.Errorf("live sibling rode a unit of %d, want %d", r.batch, 1+len(rots))
				}
				assertVecClose(t, tt.decrypt(r.ct), expected(OpRotate, z, nil, r.steps, 0), 1e-4, "live sibling")
			}
			if got := int(rotationsRun.Load()); got != len(rots) {
				t.Errorf("%d rotations reached the evaluator, want only the %d live ones", got, len(rots))
			}
			st := srv.Stats()
			if st.Timeouts-before.Timeouts != 1 {
				t.Errorf("timeouts +%d, want +1", st.Timeouts-before.Timeouts)
			}
			if g, sh := st.HoistGroups-before.HoistGroups, st.HoistShared-before.HoistShared; g != tc.wantGroups || sh != tc.wantShared {
				t.Errorf("hoist groups +%d shared +%d, want +%d +%d: sharing counts live members only", g, sh, tc.wantGroups, tc.wantShared)
			}
		})
	}
}
