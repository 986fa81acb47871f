package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/telemetry"
	"poseidon/internal/tracing"
)

const (
	burstTenants = 4
	chainTenants = 8
	tenantPool   = 8 // pooled ciphertexts per tenant
)

var burstSteps = []int{1, 2, 4, 8}

// tenant is one serving client: its own key set, a pool of encrypted
// messages, and the secret side needed to validate replies.
type tenant struct {
	name      string
	decr      *ckks.Decryptor
	rlk       *ckks.RelinearizationKey
	rtk       *ckks.RotationKeySet
	keyUpload []byte
	msgs      [][]complex128
	cts       [][]byte // marshalled pool ciphertexts
	rng       *rand.Rand
}

// serveBase is what both serving workloads share: the parameter set, the
// tenants, and an EvalServer configured the way cmd/poseidond configures it
// when started with no flags. The traced pass adds a second server whose
// only difference is Config.Tracer; requests the harness traces go to it,
// so traced and untraced slices can alternate on one set of tenants.
type serveBase struct {
	workload string
	params   *ckks.Parameters
	enc      *ckks.Encoder
	tenants  []*tenant

	srv     *server.EvalServer
	handler http.Handler

	tracedSrv     *server.EvalServer
	tracedHandler http.Handler
	recorder      *tracing.FlightRecorder

	// server trace ID → the harness span the request's stages belong under
	joinMu sync.Mutex
	join   map[string]joinKey
}

type joinKey struct{ span, op int32 }

func newServeBase(e env, workload string, nTenants int, stream int64) (*serveBase, error) {
	params, err := e.rung(rungS11).params()
	if err != nil {
		return nil, err
	}
	b := &serveBase{workload: workload, params: params, enc: ckks.NewEncoder(params)}
	for i := 0; i < nTenants; i++ {
		seed := e.seed*1000 + int64(i)
		kgen := ckks.NewKeyGenerator(params, seed)
		sk := kgen.GenSecretKey()
		pk := kgen.GenPublicKey(sk)
		t := &tenant{
			name: fmt.Sprintf("%s-%02d", workload, i),
			decr: ckks.NewDecryptor(params, sk),
			rlk:  kgen.GenRelinearizationKey(sk),
			rtk:  kgen.GenRotationKeys(sk, burstSteps, false),
			rng:  e.rng(stream*100 + int64(i)),
		}
		rlkBytes, err := t.rlk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		rtkBytes, err := t.rtk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		t.keyUpload = server.EncodeKeyUpload(&server.KeyUpload{Tenant: t.name, Relin: rlkBytes, Rotations: rtkBytes})
		encr := ckks.NewEncryptor(params, pk, seed+500)
		for j := 0; j < tenantPool; j++ {
			// Radius ½ is the fixed point of serve_chain's round
			// (y ← 2·rot(y²)), so values keep their size at every level.
			z := unitCircle(t.rng, params.Slots, 0.5)
			ct, err := encr.Encrypt(b.enc.Encode(z, params.MaxLevel(), params.Scale)).MarshalBinary()
			if err != nil {
				return nil, err
			}
			t.msgs = append(t.msgs, z)
			t.cts = append(t.cts, ct)
		}
		b.tenants = append(b.tenants, t)
	}
	if b.srv, b.handler, err = b.startServer(nil); err != nil {
		return nil, err
	}
	return b, nil
}

// startServer builds an EvalServer with cmd/poseidond's flag defaults and
// registers every tenant's keys through POST /v1/keys, the way a tenant
// does.
func (b *serveBase) startServer(tracer *tracing.Tracer) (*server.EvalServer, http.Handler, error) {
	srv, err := server.NewEvalServer(server.Config{
		Params:          b.params,
		MaxBatch:        16,
		FlushTimeout:    2 * time.Millisecond,
		QueueDepth:      256,
		RegistryCap:     64,
		GuardSeed:       1,
		OpMaxAttempts:   1,
		MaxJobAttempts:  1,
		Collector:       telemetry.NewCollector("poseidond"),
		Tracer:          tracer,
		DegradeCooldown: 2 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	for _, t := range b.tenants {
		if code, _ := post(h, "/v1/keys", t.keyUpload, ""); code != http.StatusNoContent {
			srv.Close()
			return nil, nil, fmt.Errorf("%s: key upload answered %d", t.name, code)
		}
	}
	return srv, h, nil
}

// enableTracing starts the second server, with the server's own request
// tracer installed and keeping every trace so the harness can join the
// server's stages to its request spans.
func (b *serveBase) enableTracing() (err error) {
	b.recorder = tracing.NewFlightRecorder(1<<15, 1, 0.95)
	b.join = map[string]joinKey{}
	b.tracedSrv, b.tracedHandler, err = b.startServer(&tracing.Tracer{Recorder: b.recorder})
	return err
}

// post hands one request to a server's handler with an in-memory
// ResponseWriter: wire decode, admission, queue, batch, exec and encode all
// run; the kernel's TCP stack does not.
func post(h http.Handler, path string, body []byte, traceID string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if traceID != "" {
		req.Header.Set(tracing.Header, traceID)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// eval posts one eval envelope as unit op id and returns its latency. A
// traced request is a root span with the handler call beneath it, goes to
// the tracing server, and carries a trace ID so that server's stages can be
// joined on later.
func (b *serveBase) eval(tr *tracer, id int32, body []byte) (code int, out []byte, latMs float64) {
	h, traceID := b.handler, ""
	root := tr.begin(b.workload, noSpan, id)
	call := tr.begin("server.ServeHTTP", root, id)
	if tr != nil && b.tracedHandler != nil {
		h = b.tracedHandler
		if call != noSpan {
			traceID = tracing.NewContext().Header()
			b.joinMu.Lock()
			b.join[traceID] = joinKey{span: call, op: id}
			b.joinMu.Unlock()
		}
	}
	t0 := time.Now()
	code, out = post(h, "/v1/eval", body, traceID)
	latMs = float64(time.Since(t0)) / 1e6
	tr.end(call)
	tr.end(root)
	return code, out, latMs
}

// joinServerSpans copies the stages the server's own tracer recorded under
// the harness span of the request they belong to, and returns the traces of
// the requests tr recorded.
func (b *serveBase) joinServerSpans(tr *tracer) []*tracing.Finished {
	if b.recorder == nil {
		return nil
	}
	var traces []*tracing.Finished
	for _, f := range b.recorder.Snapshot() {
		k, ok := b.join[f.TraceID]
		if !ok {
			continue
		}
		traces = append(traces, f)
		for _, sp := range f.Spans[1:] {
			if sp.Parent == 1 && sp.DurNs >= 0 {
				tr.add("server."+sp.Name, k.span, k.op, sp.StartNs, sp.DurNs)
			}
		}
	}
	return traces
}

func (b *serveBase) decrypt(t *tenant, body []byte) ([]complex128, error) {
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	return b.enc.Decode(t.decr.Decrypt(ct)), nil
}

func (b *serveBase) close() {
	for _, srv := range []*server.EvalServer{b.srv, b.tracedSrv} {
		if srv != nil {
			srv.Close()
		}
	}
	b.srv, b.tracedSrv = nil, nil
}

// segCollector gathers the tenants' samples into one segResult.
type segCollector struct {
	mu sync.Mutex
	r  segResult
}

func (c *segCollector) record(code int, latMs float64) {
	c.mu.Lock()
	c.r.attempted++
	if code == http.StatusOK {
		c.r.latMs = append(c.r.latMs, latMs)
	} else {
		c.r.failed++
	}
	c.mu.Unlock()
}

// --- serve_bursts ----------------------------------------------------------

type retainedRotation struct {
	tenant *tenant
	ct     int
	steps  int
	body   []byte
}

type burstsInst struct {
	*serveBase
	bodies   [][][][]byte // [tenant][ct][step] pre-encoded envelopes
	ops      atomic.Int32 // unit-op ids, handed out across tenant goroutines
	retained []retainedRotation
}

// rotateReference is the cleartext program of one request: rotate by steps.
func rotateReference(z []complex128, steps int) []complex128 {
	n := len(z)
	out := make([]complex128, n)
	for i := range out {
		out[i] = z[(i+steps)%n]
	}
	return out
}

func setupServeBursts(e env) (instance, error) {
	base, err := newServeBase(e, "serve_bursts", burstTenants, 4)
	if err != nil {
		return nil, err
	}
	bi := &burstsInst{serveBase: base}
	for _, t := range base.tenants {
		perCt := make([][][]byte, len(t.cts))
		for c, ct := range t.cts {
			for _, s := range burstSteps {
				perCt[c] = append(perCt[c], server.EncodeEvalRequest(&server.EvalRequest{
					Tenant: t.name, Op: server.OpRotate, Steps: s, Ct: ct,
				}))
			}
		}
		bi.bodies = append(bi.bodies, perCt)
	}
	return bi, nil
}

// burst issues the four sibling rotations of one pooled ciphertext
// concurrently, waits for all of them and returns their replies (nil for a
// request that failed).
func (bi *burstsInst) burst(ti, ct int, tr *tracer, col *segCollector) [][]byte {
	replies := make([][]byte, len(burstSteps))
	var wg sync.WaitGroup
	for k := range burstSteps {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			code, out, lat := bi.eval(tr, bi.ops.Add(1)-1, bi.bodies[ti][ct][k])
			col.record(code, lat)
			if code == http.StatusOK {
				replies[k] = out
			}
		}(k)
	}
	wg.Wait()
	return replies
}

func (bi *burstsInst) runSegment(d time.Duration, tr *tracer) segResult {
	var col segCollector
	kept := make([]retainedRotation, len(bi.tenants))
	var wg sync.WaitGroup
	start := time.Now()
	for ti, t := range bi.tenants {
		wg.Add(1)
		go func(ti int, t *tenant) {
			defer wg.Done()
			for n := 0; time.Since(start) < d; n++ {
				ct := t.rng.Intn(len(t.cts))
				replies := bi.burst(ti, ct, tr, &col)
				if n == 0 {
					// One reply per tenant per segment is kept for validation.
					k := t.rng.Intn(len(burstSteps))
					kept[ti] = retainedRotation{tenant: t, ct: ct, steps: burstSteps[k], body: replies[k]}
				}
			}
		}(ti, t)
	}
	wg.Wait()
	col.r.wall = time.Since(start)
	for _, k := range kept {
		if k.body != nil {
			bi.retained = append(bi.retained, k)
		}
	}
	return col.r
}

func (bi *burstsInst) validate() validation {
	var v validation
	for _, k := range bi.retained {
		got, err := bi.decrypt(k.tenant, k.body)
		if err != nil {
			v.checked++
			v.bad++
			continue
		}
		v.check(got, rotateReference(k.tenant.msgs[k.ct], k.steps))
	}
	bi.retained = nil
	return v
}

// --- serve_chain -----------------------------------------------------------

// chainStepsPerRound is the dependent program's round: mulrelin(x,x),
// rescale, rotate by 1, add(y,y). One round costs one level.
const chainStepsPerRound = 4

// chainState is one tenant's position in its program.
type chainState struct {
	pos  int          // next step, 0 .. rounds*chainStepsPerRound-1
	cur  []byte       // the operand: the previous reply, or a pooled ciphertext
	want []complex128 // cleartext value of cur
}

type retainedChain struct {
	tenant *tenant
	body   []byte
	want   []complex128
}

type chainServeInst struct {
	*serveBase
	rounds   int
	states   []chainState
	ops      atomic.Int32 // unit-op ids, handed out across tenant goroutines
	retMu    sync.Mutex
	retained []retainedChain
}

// chainStepReference applies step pos of the program to the cleartext.
func chainStepReference(z []complex128, pos int) []complex128 {
	switch pos % chainStepsPerRound {
	case 0:
		out := make([]complex128, len(z))
		for i, v := range z {
			out[i] = v * v
		}
		return out
	case 1:
		return z
	case 2:
		return rotateReference(z, 1)
	default:
		out := make([]complex128, len(z))
		for i, v := range z {
			out[i] = 2 * v
		}
		return out
	}
}

func (ci *chainServeInst) request(t *tenant, st *chainState) []byte {
	req := server.EvalRequest{Tenant: t.name, Ct: st.cur}
	switch st.pos % chainStepsPerRound {
	case 0:
		req.Op, req.Ct2 = server.OpMulRelin, st.cur
	case 1:
		req.Op = server.OpRescale
	case 2:
		req.Op, req.Steps = server.OpRotate, 1
	default:
		req.Op, req.Ct2 = server.OpAdd, st.cur
	}
	return server.EncodeEvalRequest(&req)
}

func (ci *chainServeInst) restart(t *tenant, st *chainState) {
	i := t.rng.Intn(len(t.cts))
	st.pos, st.cur, st.want = 0, t.cts[i], t.msgs[i]
}

// step sends the tenant's next request and feeds the reply back as the next
// operand. A completed program's last reply is retained for validation; a
// failed request abandons the program.
func (ci *chainServeInst) step(t *tenant, st *chainState, tr *tracer, col *segCollector) {
	code, out, lat := ci.eval(tr, ci.ops.Add(1)-1, ci.request(t, st))
	if col != nil {
		col.record(code, lat)
	}
	if code != http.StatusOK {
		ci.restart(t, st)
		return
	}
	st.want = chainStepReference(st.want, st.pos)
	st.cur = out
	st.pos++
	if st.pos == ci.rounds*chainStepsPerRound {
		ci.retMu.Lock()
		ci.retained = append(ci.retained, retainedChain{tenant: t, body: out, want: st.want})
		ci.retMu.Unlock()
		ci.restart(t, st)
	}
}

func setupServeChain(e env) (instance, error) {
	base, err := newServeBase(e, "serve_chain", chainTenants, 5)
	if err != nil {
		return nil, err
	}
	ci := &chainServeInst{serveBase: base, rounds: base.params.MaxLevel()}
	ci.states = make([]chainState, len(base.tenants))
	// Tenants start at seed-chosen offsets into the program so concurrent
	// requests sit at different levels and batches split.
	for i, t := range base.tenants {
		st := &ci.states[i]
		ci.restart(t, st)
		for off := t.rng.Intn(ci.rounds * chainStepsPerRound); off > 0; off-- {
			ci.step(t, st, nil, nil)
		}
	}
	return ci, nil
}

func (ci *chainServeInst) runSegment(d time.Duration, tr *tracer) segResult {
	var col segCollector
	var wg sync.WaitGroup
	start := time.Now()
	for i, t := range ci.tenants {
		wg.Add(1)
		go func(t *tenant, st *chainState) {
			defer wg.Done()
			for time.Since(start) < d {
				ci.step(t, st, tr, &col)
			}
		}(t, &ci.states[i])
	}
	wg.Wait()
	col.r.wall = time.Since(start)
	return col.r
}

func (ci *chainServeInst) validate() validation {
	var v validation
	for _, k := range ci.retained {
		got, err := ci.decrypt(k.tenant, k.body)
		if err != nil {
			v.checked++
			v.bad++
			continue
		}
		v.check(got, k.want)
	}
	ci.retained = nil
	return v
}
