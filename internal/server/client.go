package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/tracing"
)

// RetryPolicy bounds the client's response to 503 overload rejections:
// up to MaxAttempts total sends, waiting between them. A rejection
// carrying a Retry-After header is honored exactly (capped at
// MaxBackoff); otherwise the wait is exponential with jitter — uniform
// in [b/2, b] where b doubles from BaseBackoff per retry, capped at
// MaxBackoff. Only overload is retried: the request was never admitted,
// so a resend cannot double-evaluate.
type RetryPolicy struct {
	MaxAttempts int           // total attempts (default 1: no retry)
	BaseBackoff time.Duration // first-retry backoff scale (default 50ms)
	MaxBackoff  time.Duration // backoff and Retry-After cap (default 2s)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// Client is a thin typed client over the poseidond HTTP API, used by the
// soak tests and the daemon's shutdown test. Safe for concurrent use
// (http.Client is).
type Client struct {
	Base  string // e.g. "http://127.0.0.1:8080"
	HTTP  *http.Client
	Retry RetryPolicy // zero value: single-shot, no retry

	// sleep is the backoff wait, injectable so the retry tests don't
	// spend wall time. nil means wait on a real timer or ctx, whichever
	// fires first.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EvalMeta reports transfer- and scheduling-side facts about one call.
type EvalMeta struct {
	Batch    int    // size of the unit the request was dispatched in (>1: a shared hoist)
	BytesIn  int    // request body size
	BytesOut int    // response body size
	Trace    string // trace ID the call carried (echoed by a tracing server)
}

func (c *Client) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// UploadKeys registers (or rotates) a tenant's key material. Either key
// may be nil.
func (c *Client) UploadKeys(tenant string, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) error {
	u := &KeyUpload{Tenant: tenant}
	if rlk != nil {
		b, err := rlk.MarshalBinary()
		if err != nil {
			return err
		}
		u.Relin = b
	}
	if rtk != nil {
		b, err := rtk.MarshalBinary()
		if err != nil {
			return err
		}
		u.Rotations = b
	}
	resp, err := c.hc().Post(c.Base+"/v1/keys", "application/octet-stream", bytes.NewReader(EncodeKeyUpload(u)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return statusErr(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Eval sends one evaluation request and decodes the result ciphertext,
// retrying overload rejections per the client's RetryPolicy.
func (c *Client) Eval(req *EvalRequest) (*ckks.Ciphertext, EvalMeta, error) {
	return c.EvalCtx(context.Background(), req)
}

// EvalCtx is Eval under a caller-supplied context. The context bounds the
// whole retry loop (sends and backoff waits), and its deadline rides to
// the server as X-Poseidon-Deadline so both ends give up together.
//
// Every call carries an X-Poseidon-Trace header — the caller's, when the
// context brought one via tracing.With, else a fresh ID minted here. The
// ID is constant across the call's retries (that is what makes the retry
// burst recognizable as one request server-side), reported in EvalMeta,
// and stamped into every error the call returns.
func (c *Client) EvalCtx(ctx context.Context, req *EvalRequest) (*ckks.Ciphertext, EvalMeta, error) {
	pol := c.Retry.withDefaults()
	body := EncodeEvalRequest(req)
	tc := tracing.From(ctx).Context()
	if !tc.Valid() {
		tc = tracing.NewContext()
	}
	meta := EvalMeta{BytesIn: len(body), Trace: tc.Trace.String()}
	var lastErr error
	for attempt := 1; ; attempt++ {
		ct, retryAfter, err := c.evalOnce(ctx, body, tc, &meta)
		if err == nil {
			return ct, meta, nil
		}
		lastErr = err
		if !errors.Is(err, ErrOverloaded) || attempt >= pol.MaxAttempts {
			return nil, meta, traceErr(err, meta.Trace)
		}
		if werr := c.wait(ctx, backoff(pol, attempt, retryAfter)); werr != nil {
			return nil, meta, traceErr(
				fmt.Errorf("%w (giving up after %d attempts: %v)", werr, attempt, lastErr), meta.Trace)
		}
	}
}

// traceErr stamps the request's trace ID onto a client error so a failed
// call can be looked up in the server's flight recorder verbatim.
func traceErr(err error, trace string) error {
	if err == nil || trace == "" {
		return err
	}
	return fmt.Errorf("%w [trace %s]", err, trace)
}

// evalOnce is one send. retryAfter is the server's Retry-After hint
// (0 = none) so the retry loop can honor it.
func (c *Client) evalOnce(ctx context.Context, body []byte, tc tracing.Context, meta *EvalMeta) (*ckks.Ciphertext, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.Header.Set(tracing.Header, tc.Header())
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			hreq.Header.Set("X-Poseidon-Deadline", remain.String())
		}
	}
	resp, err := c.hc().Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var retryAfter time.Duration
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, retryAfter, statusErr(resp)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	meta.BytesOut = len(out)
	if b := resp.Header.Get("X-Poseidon-Batch"); b != "" {
		meta.Batch, _ = strconv.Atoi(b)
	}
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(out); err != nil {
		return nil, 0, err
	}
	return ct, 0, nil
}

// backoff picks the wait before retry number `attempt`: the server's
// Retry-After hint when present, else exponential-with-jitter.
func backoff(pol RetryPolicy, attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, pol.MaxBackoff)
	}
	b := pol.BaseBackoff << uint(attempt-1)
	if b > pol.MaxBackoff || b <= 0 {
		b = pol.MaxBackoff
	}
	// Uniform in [b/2, b]: desynchronizes clients that were rejected by
	// the same overload spike.
	return b/2 + time.Duration(rand.Int63n(int64(b/2)+1))
}

// Stats fetches /v1/health raw (callers json.Unmarshal into server.Stats).
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.hc().Get(c.Base + "/v1/health")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp)
	}
	return io.ReadAll(resp.Body)
}

// statusErr maps an HTTP failure back onto the server's sentinel errors
// so callers keep one errors.Is dispatch for local and remote use.
func statusErr(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	text := bytes.TrimSpace(msg)
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrUnknownTenant, text)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrOverloaded, text)
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, text)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", context.DeadlineExceeded, text)
	default:
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, text)
	}
}
