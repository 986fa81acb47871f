// Command poseidond serves multi-tenant CKKS evaluation over HTTP — the
// FHE-as-a-service front end to this repository's evaluator. Tenants
// upload evaluation keys to /v1/keys, post binary evaluation envelopes to
// /v1/eval, and scrape scheduler/arena/latency gauges from the telemetry
// endpoint. One dispatch lane per worker takes requests off one queue, and
// queued rotations of the same ciphertext share one hoisted decomposition.
// Overload — a full queue, or arena bytes over -max-arena-mb — is refused
// with 503 + Retry-After; an integrity failure runs again, first the op
// (-op-attempts), then the whole job on its lane (-job-attempts).
//
// Quickstart:
//
//	poseidond -demo demo/ &          # writes demo/keys.bin + demo/eval.bin
//	curl --data-binary @demo/keys.bin http://127.0.0.1:8080/v1/keys
//	curl --data-binary @demo/eval.bin http://127.0.0.1:8080/v1/eval -o result.bin
//	curl http://127.0.0.1:8080/v1/health
//	curl http://127.0.0.1:9090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/telemetry"
	"poseidon/internal/tracing"
)

// daemonConfig collects the tunables main parses from flags, so tests can
// start the same daemon in-process on ephemeral ports.
type daemonConfig struct {
	addr        string
	metricsAddr string
	logN        int
	workers     int
	maxBatch    int
	queueDepth  int
	registryCap int
	maxArenaMB  int64
	guardSeed   int64
	opAttempts  int
	jobAttempts int
	deadline    time.Duration
	drain       time.Duration
	trace       bool
	traceRing   int
	traceSample int
}

// daemon is a running poseidond: the eval server, its HTTP front end, and
// the optional metrics listener, wired for ordered shutdown.
type daemon struct {
	params *ckks.Parameters
	srv    *server.EvalServer
	api    *http.Server
	ln     net.Listener
	ms     *telemetry.Server
	drain  time.Duration
}

// startDaemon builds the parameter set and eval server, binds the
// listeners, and starts serving. It returns once the API listener accepts
// connections.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     cfg.logN,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
		Workers:  cfg.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("parameters: %w", err)
	}

	col := telemetry.NewCollector("poseidond")
	var tracer *tracing.Tracer
	if cfg.trace {
		tracer = &tracing.Tracer{
			Recorder: tracing.NewFlightRecorder(cfg.traceRing, cfg.traceSample, 0.95),
		}
	}
	srv, err := server.NewEvalServer(server.Config{
		Params:          params,
		MaxBatch:        cfg.maxBatch,
		QueueDepth:      cfg.queueDepth,
		RegistryCap:     cfg.registryCap,
		MaxArenaBytes:   cfg.maxArenaMB << 20,
		GuardSeed:       cfg.guardSeed,
		OpMaxAttempts:   cfg.opAttempts,
		MaxJobAttempts:  cfg.jobAttempts,
		DefaultDeadline: cfg.deadline,
		Collector:       col,
		Tracer:          tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	d := &daemon{params: params, srv: srv, drain: cfg.drain}
	if cfg.metricsAddr != "" {
		var routes []telemetry.Route
		if tracer != nil {
			routes = append(routes, telemetry.Route{
				Pattern: "/debug/requests", Handler: tracer.Recorder.Handler(),
			})
		}
		d.ms, err = telemetry.StartServer(cfg.metricsAddr, col, routes...)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("metrics: %w", err)
		}
	}

	d.ln, err = net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.Close()
		if d.ms != nil {
			d.ms.Shutdown(context.Background())
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.api = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := d.api.Serve(d.ln); err != nil && err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
		}
	}()
	return d, nil
}

// Addr returns the API listener's address (useful with ":0").
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Shutdown drains the daemon in dependency order, each stage bounded by
// the drain budget: stop accepting and finish in-flight HTTP requests,
// drain the scheduler's queued jobs, then stop the metrics listener.
// In-flight evaluations complete and deliver their responses — the soak
// clients see results, not connection resets.
func (d *daemon) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	var firstErr error
	if err := d.api.Shutdown(ctx); err != nil {
		firstErr = fmt.Errorf("api shutdown: %w", err)
	}
	if err := d.srv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("scheduler drain: %w", err)
	}
	if d.ms != nil {
		if err := d.ms.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("metrics shutdown: %w", err)
		}
	}
	return firstErr
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "evaluation API listen address")
	flag.StringVar(&cfg.metricsAddr, "metrics", "127.0.0.1:9090", "telemetry listen address ('' disables)")
	flag.IntVar(&cfg.logN, "logn", 11, "ring degree log2")
	flag.IntVar(&cfg.workers, "workers", 0, "evaluator workers, one dispatch lane each (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxBatch, "max-batch", 16, "max same-ciphertext rotations sharing one hoist")
	flag.IntVar(&cfg.queueDepth, "queue", 256, "dispatch queue depth")
	flag.IntVar(&cfg.registryCap, "registry-cap", 64, "resident tenant key sets")
	flag.Int64Var(&cfg.maxArenaMB, "max-arena-mb", 0, "arena-bytes admission ceiling in MiB (0 = off)")
	flag.Int64Var(&cfg.guardSeed, "guard-seed", 1, "integrity guard seed (0 disables guards)")
	flag.IntVar(&cfg.opAttempts, "op-attempts", 1, "op-level recovery attempts per integrity failure (1 = off)")
	flag.IntVar(&cfg.jobAttempts, "job-attempts", 1, "runs per integrity-failed job, in place on its lane (1 = off)")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "default per-request deadline (0 = unbounded)")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "shutdown drain budget")
	flag.BoolVar(&cfg.trace, "trace", false, "enable request tracing: span trees on /debug/requests (telemetry mux), trace exemplars on /metrics")
	flag.IntVar(&cfg.traceRing, "trace-ring", 1024, "flight-recorder capacity (retained request traces)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 16, "keep 1/N of ordinary requests (errored and slowest are always kept)")
	demoDir := flag.String("demo", "", "write curl-able demo request files to this directory")
	flag.Parse()

	d, err := startDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *demoDir != "" {
		if err := writeDemo(*demoDir, d.params); err != nil {
			log.Fatalf("demo: %v", err)
		}
	}
	if d.ms != nil {
		log.Printf("telemetry on http://%s/metrics", d.ms.Addr())
		if cfg.trace {
			log.Printf("request traces on http://%s/debug/requests", d.ms.Addr())
		}
	}
	log.Printf("poseidond serving LogN=%d on http://%s (%d lanes, hoist group ≤%d, registry cap %d)",
		cfg.logN, d.Addr(), d.params.Workers(), cfg.maxBatch, cfg.registryCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if err := d.Shutdown(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Print("drained")
}

// writeDemo generates a throwaway tenant ("demo") and writes ready-to-curl
// binary envelopes: keys.bin registers the tenant's evaluation keys,
// eval.bin rotates an encrypted 1..8 ramp by one slot. The secret key
// stays in demo/sk.bin so a later session can decrypt the response.
func writeDemo(dir string, params *ckks.Parameters) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kgen := ckks.NewKeyGenerator(params, time.Now().UnixNano())
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1, 2, 4}, true)

	rlkBytes, err := rlk.MarshalBinary()
	if err != nil {
		return err
	}
	rtkBytes, err := rtk.MarshalBinary()
	if err != nil {
		return err
	}
	keys := server.EncodeKeyUpload(&server.KeyUpload{Tenant: "demo", Relin: rlkBytes, Rotations: rtkBytes})
	if err := os.WriteFile(filepath.Join(dir, "keys.bin"), keys, 0o644); err != nil {
		return err
	}

	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, time.Now().UnixNano()+1)
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(float64(i%8+1), 0)
	}
	ctBytes, err := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale)).MarshalBinary()
	if err != nil {
		return err
	}
	eval := server.EncodeEvalRequest(&server.EvalRequest{Tenant: "demo", Op: server.OpRotate, Steps: 1, Ct: ctBytes})
	if err := os.WriteFile(filepath.Join(dir, "eval.bin"), eval, 0o644); err != nil {
		return err
	}
	skBytes, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "sk.bin"), skBytes, 0o600); err != nil {
		return err
	}
	fmt.Printf("demo files in %s: curl --data-binary @%s/keys.bin http://<addr>/v1/keys, then @%s/eval.bin to /v1/eval\n",
		dir, dir, dir)
	return nil
}
