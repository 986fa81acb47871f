package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"poseidon/internal/ckks"
	"poseidon/internal/ring"
	"poseidon/internal/telemetry"
)

func newHTTPFixture(t *testing.T, cfg Config) (*EvalServer, *httptest.Server, *Client) {
	t.Helper()
	if cfg.Params == nil {
		cfg.Params = newServeParams(t, 1)
	}
	srv, err := NewEvalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// Every operation the API serves, end to end over HTTP: upload real keys,
// post a binary envelope, decrypt-validate the response ciphertext.
func TestHTTPEvalAllOps(t *testing.T) {
	params := newServeParams(t, 1)
	srv, _, cli := newHTTPFixture(t, Config{Params: params})
	_ = srv
	tt := newTestTenant(t, params, "alice", 7, []int{1, 2, 4, -3}, true)
	kgenUpload(t, cli, tt)

	rng := rand.New(rand.NewSource(8))
	a := randomVec(rng, params.Slots)
	b := randomVec(rng, params.Slots)
	aBytes := tt.encryptBytes(t, a)
	bBytes := tt.encryptBytes(t, b)

	cases := []struct {
		op    Op
		steps int
		width int
		tol   float64
	}{
		{op: OpAdd, tol: 1e-4},
		{op: OpSub, tol: 1e-4},
		{op: OpMulRelin, tol: 1e-3},
		{op: OpRescale, tol: 1e-3},
		{op: OpRotate, steps: -3, tol: 1e-4},
		{op: OpConjugate, tol: 1e-4},
		{op: OpNegate, tol: 1e-4},
		{op: OpInnerSum, width: 4, tol: 1e-3},
	}
	// Rescale's legitimate input is a scale² ciphertext: produce one with a
	// server-side multiplication first.
	mulCt, _, err := cli.Eval(&EvalRequest{Tenant: "alice", Op: OpMulRelin, Ct: aBytes, Ct2: bBytes})
	if err != nil {
		t.Fatal(err)
	}
	mulBytes, err := mulCt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ab := expected(OpMulRelin, a, b, 0, 0)

	for _, tc := range cases {
		req := &EvalRequest{Tenant: "alice", Op: tc.op, Steps: tc.steps, Width: tc.width, Ct: aBytes}
		if tc.op == OpRescale {
			req.Ct = mulBytes
		}
		if tc.op.twoOperand() {
			req.Ct2 = bBytes
		}
		ct, meta, err := cli.Eval(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if meta.Batch < 1 {
			t.Fatalf("%s: batch occupancy %d", tc.op, meta.Batch)
		}
		if meta.BytesOut == 0 {
			t.Fatalf("%s: empty response body", tc.op)
		}
		want := expected(tc.op, a, b, tc.steps, tc.width)
		if tc.op == OpRescale {
			want = ab
		}
		assertVecClose(t, tt.decrypt(ct), want, tc.tol, tc.op.String())
	}
}

func kgenUpload(t *testing.T, cli *Client, tt *testTenant) {
	t.Helper()
	resp, err := cli.hc().Post(cli.Base+"/v1/keys", "application/octet-stream",
		bytes.NewReader(EncodeKeyUpload(&KeyUpload{Tenant: tt.name, Relin: tt.rlkBytes, Rotations: tt.rtkBytes})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("key upload: HTTP %d", resp.StatusCode)
	}
}

// holdArena checks out one arena polynomial until the test ends, so live
// arena bytes stay above a 1-byte ceiling whatever the requests do.
func holdArena(t *testing.T, params *ckks.Parameters) {
	t.Helper()
	arena := params.Arena()
	p := arena.Get(1)
	t.Cleanup(func() { arena.Put(p) })
}

// The HTTP status surface: structural garbage is 400, an unknown tenant
// 404, a valid envelope that cannot evaluate 422, overload 503 with
// Retry-After, health always 200.
func TestHTTPStatusMapping(t *testing.T) {
	params := newServeParams(t, 1)
	_, hs, cli := newHTTPFixture(t, Config{Params: params, MaxArenaBytes: 1})
	tt := newTestTenant(t, params, "alice", 9, []int{1}, false)
	kgenUpload(t, cli, tt)
	rng := rand.New(rand.NewSource(10))
	ctBytes := tt.encryptBytes(t, randomVec(rng, params.Slots))

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/v1/eval", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post([]byte("not an envelope")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}
	ghost := EncodeEvalRequest(&EvalRequest{Tenant: "ghost", Op: OpNegate, Ct: ctBytes})
	if resp := post(ghost); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: HTTP %d, want 404", resp.StatusCode)
	}
	// Valid envelope, truncated ciphertext payload → 400 (decode fails).
	corrupt := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes[:len(ctBytes)-7]})
	if resp := post(corrupt); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt ciphertext: HTTP %d, want 400", resp.StatusCode)
	}
	// Valid envelope, a ciphertext outside the NTT domain (header NTT word
	// 0) → 400: it decodes, but no evaluator op accepts it.
	if resp := post(EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpAdd, Ct: ctBytes, Ct2: coeffDomainBytes(t, params, ctBytes)})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("coefficient-domain ciphertext: HTTP %d, want 400", resp.StatusCode)
	}
	// Rotation with no key for the step → 422 (evaluation failure).
	noKey := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 7, Ct: ctBytes})
	if resp := post(noKey); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing rotation key: HTTP %d, want 422", resp.StatusCode)
	}
	// Inner sum over a width that is not a power of two → 400 at admission:
	// rotations by 1 and 2 would sum four slots, not three.
	width3 := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpInnerSum, Width: 3, Ct: ctBytes})
	if resp := post(width3); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inner-sum width 3: HTTP %d, want 400", resp.StatusCode)
	}
	// Live arena bytes over the ceiling → 503 with Retry-After.
	holdArena(t, params)
	ok := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes})
	resp := post(ok)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("arena over its ceiling: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if _, _, err := cli.Eval(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("client 503 mapping: %v, want ErrOverloaded", err)
	}

	hresp, err := hs.Client().Get(hs.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("health: HTTP %d", hresp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatalf("health JSON: %v", err)
	}
	if st.Rejected != 2 {
		t.Fatalf("health rejected = %d, want the 2 requests over the arena ceiling", st.Rejected)
	}
}

// A word that is not a canonical residue — w + q, w + 2q, 2^64 − 1, on the
// 50-bit limb 0 and on a 40-bit limb — is a 400 at ingest, in either eval
// operand and in an uploaded relinearization or rotation key, and the
// registry never takes such a key; the same requests with every word a
// residue are served.
func TestHTTPNonCanonicalWordsRefused(t *testing.T) {
	params := newServeParams(t, 1)
	_, hs, cli := newHTTPFixture(t, Config{Params: params})
	tt := newTestTenant(t, params, "alice", 9, []int{1}, false)
	kgenUpload(t, cli, tt)
	ctBytes := tt.encryptBytes(t, randomVec(rand.New(rand.NewSource(11)), params.Slots))
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/eval", EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpAdd, Ct: ctBytes, Ct2: ctBytes})); code != http.StatusOK {
		t.Fatalf("canonical operands: HTTP %d, want 200", code)
	}
	for name, f := range nonCanonical {
		for _, limb := range []int{0, 2} {
			q := params.RingQ.Moduli[limb].Q
			label := fmt.Sprintf("%s on the %d-bit limb %d", name, params.RingQ.Moduli[limb].Bits, limb)
			bad := edited(t, ctBytes, func(ct *ckks.Ciphertext) { ct.C1.Coeffs[limb][7] = f(ct.C1.Coeffs[limb][7], q) })
			for _, req := range []*EvalRequest{
				{Tenant: "alice", Op: OpNegate, Ct: bad},
				{Tenant: "alice", Op: OpAdd, Ct: ctBytes, Ct2: bad},
			} {
				if code := post("/v1/eval", EncodeEvalRequest(req)); code != http.StatusBadRequest {
					t.Fatalf("%s, %s operand: HTTP %d, want 400", label, req.Op, code)
				}
			}
			rlk := edited(t, tt.rlkBytes, func(k *ckks.RelinearizationKey) { row := k.B[0].Q.Coeffs[limb]; row[7] = f(row[7], q) })
			rtk := edited(t, tt.rtkBytes, func(ks *ckks.RotationKeySet) {
				for _, k := range ks.Keys {
					row := k.A[0].Q.Coeffs[limb]
					row[7] = f(row[7], q)
				}
			})
			for _, u := range []*KeyUpload{{Tenant: "bob", Relin: rlk, Rotations: tt.rtkBytes}, {Tenant: "bob", Relin: tt.rlkBytes, Rotations: rtk}} {
				if code := post("/v1/keys", EncodeKeyUpload(u)); code != http.StatusBadRequest {
					t.Fatalf("%s in an uploaded key: HTTP %d, want 400", label, code)
				}
			}
		}
	}
	if code := post("/v1/eval", EncodeEvalRequest(&EvalRequest{Tenant: "bob", Op: OpNegate, Ct: ctBytes})); code != http.StatusNotFound {
		t.Fatalf("tenant whose every upload was refused: HTTP %d, want 404", code)
	}
}

// The body is read at its declared length when there is one: an exact
// length is served, a body shorter or longer than it declared is 400, and an
// absent or over-limit declaration falls back to the capped ReadAll, which
// answers from the bytes actually sent rather than sizing a buffer by the
// header.
func TestHTTPBodyLength(t *testing.T) {
	params := newServeParams(t, 1)
	srv, _, cli := newHTTPFixture(t, Config{Params: params})
	tt := newTestTenant(t, params, "alice", 18, []int{1}, false)
	kgenUpload(t, cli, tt)
	ctBytes := tt.encryptBytes(t, randomVec(rand.New(rand.NewSource(19)), params.Slots))
	eval := EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes})
	keys := EncodeKeyUpload(&KeyUpload{Tenant: "bob", Relin: tt.rlkBytes})

	for _, tc := range []struct {
		name     string
		path     string
		body     []byte
		declared func(n int) int64 // Content-Length for a body of n bytes
		want     int
	}{
		{"exact", "/v1/eval", eval, func(n int) int64 { return int64(n) }, http.StatusOK},
		{"short body", "/v1/eval", eval, func(n int) int64 { return int64(n) + 5 }, http.StatusBadRequest},
		{"long body", "/v1/eval", eval, func(n int) int64 { return int64(n) - 5 }, http.StatusBadRequest},
		{"absent", "/v1/eval", eval, func(int) int64 { return -1 }, http.StatusOK},
		{"over limit", "/v1/eval", eval, func(int) int64 { return maxBodyBytes + 1 }, http.StatusOK},
		{"keys exact", "/v1/keys", keys, func(n int) int64 { return int64(n) }, http.StatusNoContent},
		{"keys short body", "/v1/keys", keys, func(n int) int64 { return int64(n) + 1 }, http.StatusBadRequest},
		{"keys absent", "/v1/keys", keys, func(int) int64 { return -1 }, http.StatusNoContent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			req.ContentLength = tc.declared(len(tc.body))
			w := httptest.NewRecorder()
			before := srv.Stats().BytesIn
			srv.Handler().ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("HTTP %d, want %d: %s", w.Code, tc.want, w.Body)
			}
			if got := srv.Stats().BytesIn - before; tc.want < 300 && got != uint64(len(tc.body)) {
				t.Fatalf("bytes_in grew by %d for a served body of %d bytes", got, len(tc.body))
			}
		})
	}
}

// A well-formed key shorter than the server's chain — its header names its
// own 2 Q limbs and 1 digit — is accepted at upload and covers levels ≤ 1: a
// rotation there is served, one at level 3 is 422 at the op's precondition,
// not an index out of range inside a pool worker answered 500.
func TestHTTPShortKeyIs422(t *testing.T) {
	params := newServeParams(t, 1)
	_, hs, cli := newHTTPFixture(t, Config{Params: params})
	tt := newTestTenant(t, params, "alice", 16, []int{1}, false)
	// The full key restricted to its first digit's limbs is the level-1 key.
	keys := new(ckks.RotationKeySet)
	if err := keys.UnmarshalBinary(tt.rtkBytes); err != nil {
		t.Fatal(err)
	}
	cut := func(c ckks.PolyQP) []ckks.PolyQP {
		return []ckks.PolyQP{{Q: &ring.Poly{Coeffs: c.Q.Coeffs[:2], IsNTT: true}, P: c.P}}
	}
	for g, key := range keys.Keys {
		keys.Keys[g] = &ckks.SwitchingKey{B: cut(key.B[0]), A: cut(key.A[0])}
	}
	var err error
	if tt.rtkBytes, err = keys.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	kgenUpload(t, cli, tt)

	z := randomVec(rand.New(rand.NewSource(17)), params.Slots)
	rotateAt := func(level int) *http.Response {
		t.Helper()
		ct, err := tt.encr.Encrypt(tt.enc.Encode(z, level, params.Scale)).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Post(hs.URL+"/v1/eval", "application/octet-stream",
			bytes.NewReader(EncodeEvalRequest(&EvalRequest{Tenant: "alice", Op: OpRotate, Steps: 1, Ct: ct})))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := rotateAt(3); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("level-3 rotation on a key covering levels ≤ 1: HTTP %d, want 422", resp.StatusCode)
	}
	resp := rotateAt(1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("level-1 rotation on a key covering levels ≤ 1: HTTP %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := new(ckks.Ciphertext)
	if err := out.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	assertVecClose(t, tt.decrypt(out), expected(OpRotate, z, nil, 1, 0), 1e-4, "rotation on the short key")
}

// The admission ceiling: with an arena polynomial checked out for the
// request's duration, live arena bytes exceed a 1-byte ceiling and the
// request is rejected with 503 before the evaluator is touched.
func TestHTTPArenaBackpressure(t *testing.T) {
	params := newServeParams(t, 1)
	srv, _, cli := newHTTPFixture(t, Config{Params: params, MaxArenaBytes: 1})
	tt := newTestTenant(t, params, "alice", 12, []int{1}, false)
	kgenUpload(t, cli, tt)
	rng := rand.New(rand.NewSource(13))
	ctBytes := tt.encryptBytes(t, randomVec(rng, params.Slots))
	holdArena(t, params)
	_, _, err := cli.Eval(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("arena ceiling: %v, want ErrOverloaded", err)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Requests != 0 {
		t.Fatalf("rejected %d, requests %d: want the one request refused at admission", st.Rejected, st.Requests)
	}
}

// The serving gauges ride the collector's /metrics page.
func TestHTTPMetricsIncludeServeGauges(t *testing.T) {
	params := newServeParams(t, 1)
	col := telemetry.NewCollector("serve-test")
	srv, _, cli := newHTTPFixture(t, Config{Params: params, Collector: col})
	_ = srv
	tt := newTestTenant(t, params, "alice", 14, []int{1}, false)
	kgenUpload(t, cli, tt)
	rng := rand.New(rand.NewSource(15))
	ctBytes := tt.encryptBytes(t, randomVec(rng, params.Slots))
	if _, _, err := cli.Eval(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: ctBytes}); err != nil {
		t.Fatal(err)
	}

	page := metricsPage(t, col)
	for _, want := range []string{
		"poseidon_serve_queue_depth 0",
		"poseidon_serve_job_unrecoverable_total 0",
		"poseidon_serve_requests_total 1",
		"poseidon_serve_resident_tenants 1",
		"poseidon_serve_arena_bytes",
	} {
		if !bytes.Contains([]byte(page), []byte(want)) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	// The ten serving families keep the names, HELP text and TYPE they had
	// as registered gauges, in the same (sorted) order.
	var got []string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "# HELP poseidon_serve_") || strings.HasPrefix(line, "# TYPE poseidon_serve_") {
			got = append(got, line)
		}
	}
	want := []string{
		"# HELP poseidon_serve_arena_bytes live arena bytes (admission signal)",
		"# TYPE poseidon_serve_arena_bytes gauge",
		"# HELP poseidon_serve_job_recovered_total jobs that succeeded on a retry attempt",
		"# TYPE poseidon_serve_job_recovered_total gauge",
		"# HELP poseidon_serve_job_retries_total integrity-failed jobs run again by the scheduler",
		"# TYPE poseidon_serve_job_retries_total gauge",
		"# HELP poseidon_serve_job_unrecoverable_total jobs answered with an integrity error",
		"# TYPE poseidon_serve_job_unrecoverable_total gauge",
		"# HELP poseidon_serve_queue_depth jobs waiting for dispatch",
		"# TYPE poseidon_serve_queue_depth gauge",
		"# HELP poseidon_serve_rejected_total requests rejected by admission control",
		"# TYPE poseidon_serve_rejected_total gauge",
		"# HELP poseidon_serve_request_p99_seconds end-to-end request p99 since start",
		"# TYPE poseidon_serve_request_p99_seconds gauge",
		"# HELP poseidon_serve_requests_total evaluation requests accepted",
		"# TYPE poseidon_serve_requests_total gauge",
		"# HELP poseidon_serve_resident_tenants tenant key sets resident in the registry",
		"# TYPE poseidon_serve_resident_tenants gauge",
		"# HELP poseidon_serve_timeouts_total requests abandoned at their context deadline",
		"# TYPE poseidon_serve_timeouts_total gauge",
	}
	if !slices.Equal(got, want) {
		t.Errorf("serving families:\n got %q\nwant %q", got, want)
	}
	// The tenant evaluator observed its op through the collector too.
	if !bytes.Contains([]byte(page), []byte("poseidon_op_count")) && !bytes.Contains([]byte(page), []byte("poseidon_ops")) {
		t.Logf("page:\n%s", page)
	}
}

// metricsPage fetches the collector's /metrics page.
func metricsPage(t *testing.T, col *telemetry.Collector) string {
	t.Helper()
	ms := httptest.NewServer(col.MetricsHandler())
	defer ms.Close()
	resp, err := ms.Client().Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestHTTPMetricsIncludeCtHealth pins the four ciphertext-health families
// on /metrics — names, HELP, TYPE, order and the values one response leaves:
// the result's level, its scale drift and its modulus headroom
// (ckks.HeadroomBits), and the sample count.
func TestHTTPMetricsIncludeCtHealth(t *testing.T) {
	params := newServeParams(t, 1)
	col := telemetry.NewCollector("ct-health-test")
	_, _, cli := newHTTPFixture(t, Config{Params: params, Collector: col})
	tt := newTestTenant(t, params, "alice", 14, []int{1}, false)
	kgenUpload(t, cli, tt)
	rng := rand.New(rand.NewSource(16))
	ct, _, err := cli.Eval(&EvalRequest{Tenant: "alice", Op: OpNegate, Ct: tt.encryptBytes(t, randomVec(rng, params.Slots))})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(metricsPage(t, col), "\n") {
		if strings.HasPrefix(line, "poseidon_ct_") || strings.HasPrefix(line, "# HELP poseidon_ct_") || strings.HasPrefix(line, "# TYPE poseidon_ct_") {
			got = append(got, line)
		}
	}
	want := []string{
		"# HELP poseidon_ct_level Level of the tenant's most recent result ciphertext.",
		"# TYPE poseidon_ct_level gauge",
		fmt.Sprintf(`poseidon_ct_level{tenant="alice"} %d`, ct.Level),
		"# HELP poseidon_ct_scale_drift_bits log2 of the result scale over the default scale (0 = on-scale).",
		"# TYPE poseidon_ct_scale_drift_bits gauge",
		`poseidon_ct_scale_drift_bits{tenant="alice"} 0`,
		"# HELP poseidon_ct_headroom_bits Modulus headroom of the result ciphertext: log2 Q_l - log2 scale - 10 bits (not a noise measurement).",
		"# TYPE poseidon_ct_headroom_bits gauge",
		fmt.Sprintf(`poseidon_ct_headroom_bits{tenant="alice"} %g`, ckks.HeadroomBits(params, ct)),
		"# HELP poseidon_ct_health_samples_total Responses sampled for ciphertext health.",
		"# TYPE poseidon_ct_health_samples_total counter",
		`poseidon_ct_health_samples_total{tenant="alice"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("ciphertext-health families:\n got %q\nwant %q", got, want)
	}
}
