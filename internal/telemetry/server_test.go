package telemetry

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Shutdown must drain an in-flight scrape: the response completes with its
// full body, Shutdown does not return before the handler does, and the
// listener is released afterwards.
func TestServerShutdownDrainsInflightScrape(t *testing.T) {
	c := NewCollector("shutdown-test")
	entered := make(chan struct{})
	release := make(chan struct{})
	c.RegisterAux(func(w io.Writer) {
		close(entered)
		<-release
		fmt.Fprintln(w, "poseidon_test_aux 1")
	})

	srv, err := StartServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	scrapeDone := make(chan error, 1)
	var body string
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			scrapeDone <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		body = string(b)
		scrapeDone <- err
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("scrape never reached the aux writer")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The scrape is still blocked, so Shutdown must still be draining.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a scrape was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-scrapeDone; err != nil {
		t.Fatalf("in-flight scrape failed: %v", err)
	}
	if !strings.Contains(body, "poseidon_test_aux 1") {
		t.Fatalf("drained scrape lost the aux payload:\n%s", body)
	}

	// The listener must be gone: new connections are refused.
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting connections after Shutdown")
	}
}

// Aux writers registered on a collector must appear on /metrics scrapes
// after the collector's own families.
func TestCollectorAuxWriters(t *testing.T) {
	c := NewCollector("aux-test")
	c.ObserveOp(op("HAdd", 3, 42*time.Microsecond))
	c.RegisterAux(func(w io.Writer) {
		fmt.Fprintf(w, "# TYPE poseidon_serve_queue_depth gauge\nposeidon_serve_queue_depth 1\n")
	})

	srv, err := StartServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	opIdx := strings.Index(out, "poseidon_op_total")
	auxIdx := strings.Index(out, "poseidon_serve_queue_depth 1")
	if opIdx < 0 || auxIdx < 0 {
		t.Fatalf("scrape missing op or aux families:\n%s", out)
	}
	if auxIdx < opIdx {
		t.Errorf("aux families should follow collector families:\n%s", out)
	}
}
