package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
)

// TestShutdownDrainsInFlight starts the daemon on ephemeral ports, puts a
// burst of evaluation requests in flight, and shuts down while they run:
// every request must complete with a decryptable result — graceful drain
// means responses, not connection resets — from one dispatch lane and from
// two.
func TestShutdownDrainsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { shutdownDrainsInFlight(t, workers) })
	}
}

func shutdownDrainsInFlight(t *testing.T, workers int) {
	d, err := startDaemon(daemonConfig{
		addr:        "127.0.0.1:0",
		metricsAddr: "", // no telemetry listener in tests
		logN:        8,
		workers:     workers,
		maxBatch:    4,
		queueDepth:  64,
		registryCap: 4,
		guardSeed:   1,
		drain:       10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	kgen := ckks.NewKeyGenerator(d.params, 42)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1}, false)
	// One connection per request: a keep-alive pool dials spares that never
	// carry a request, and http.Server.Shutdown waits 5 s on each before it
	// counts it idle.
	cl := &server.Client{
		Base: "http://" + d.Addr(),
		HTTP: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	if err := cl.UploadKeys("tenant", nil, rtk); err != nil {
		t.Fatal(err)
	}

	enc := ckks.NewEncoder(d.params)
	encr := ckks.NewEncryptor(d.params, pk, 43)
	dec := ckks.NewDecryptor(d.params, sk)
	want := make([]complex128, d.params.Slots)
	for i := range want {
		want[i] = complex(float64(i%7+1), 0)
	}
	ctBytes, err := encr.Encrypt(enc.Encode(want, d.params.MaxLevel(), d.params.Scale)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 12
	req := &server.EvalRequest{Tenant: "tenant", Op: server.OpRotate, Steps: 1, Ct: ctBytes}
	admitted := d.srv.Stats().BytesIn + uint64(inflight*len(server.EncodeEvalRequest(req)))
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ct, _, err := cl.Eval(req)
			if err != nil {
				errs[i] = err
				return
			}
			got := enc.Decode(dec.Decrypt(ct))
			for s := range want {
				exp := want[(s+1)%len(want)]
				if diff := real(got[s]) - real(exp); diff > 0.5 || diff < -0.5 {
					errs[i] = fmt.Errorf("slot %d: got %v want %v", s, got[s], exp)
					return
				}
			}
		}(i)
	}
	// Shutdown must wait for every admitted request rather than cutting it
	// off, so hold it until the whole burst is inside a handler: BytesIn
	// counts a request once its body is read, before it is queued.
	for limit := time.Now().Add(30 * time.Second); d.srv.Stats().BytesIn < admitted && time.Now().Before(limit); {
		time.Sleep(time.Millisecond)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// The demo files must be valid envelopes a curl user can post verbatim:
// keys.bin decodes as a key upload carrying both keys, eval.bin as a
// rotation request whose ciphertext deserializes at the demo parameters.
func TestWriteDemoProducesValidEnvelopes(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeDemo(dir, params); err != nil {
		t.Fatal(err)
	}

	keysBytes := readFile(t, dir+"/keys.bin")
	u, err := server.DecodeKeyUpload(keysBytes)
	if err != nil {
		t.Fatalf("keys.bin: %v", err)
	}
	if u.Tenant != "demo" || len(u.Relin) == 0 || len(u.Rotations) == 0 {
		t.Fatalf("keys.bin incomplete: tenant %q relin %d rot %d", u.Tenant, len(u.Relin), len(u.Rotations))
	}
	rtk := new(ckks.RotationKeySet)
	if err := rtk.UnmarshalBinary(u.Rotations); err != nil {
		t.Fatalf("rotation keys: %v", err)
	}

	evalBytes := readFile(t, dir+"/eval.bin")
	req, err := server.DecodeEvalRequest(evalBytes)
	if err != nil {
		t.Fatalf("eval.bin: %v", err)
	}
	if req.Tenant != "demo" || req.Op != server.OpRotate || req.Steps != 1 {
		t.Fatalf("eval.bin wrong request: %+v", req)
	}
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(req.Ct); err != nil {
		t.Fatalf("demo ciphertext: %v", err)
	}

	sk := new(ckks.SecretKey)
	if err := sk.UnmarshalBinary(readFile(t, dir+"/sk.bin")); err != nil {
		t.Fatalf("sk.bin: %v", err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
