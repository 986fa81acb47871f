package telemetry

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the optional live-metrics HTTP endpoint:
//
//	/metrics      Prometheus text exposition of the collector
//	/debug/pprof  the standard Go profiling handlers
//
// It binds its own listener and mux, so it never pollutes
// http.DefaultServeMux and multiple servers (e.g. in tests) coexist.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Route mounts an extra handler on the telemetry mux — how hosts attach
// endpoints the collector itself does not know about (poseidond mounts
// the flight recorder's /debug/requests page this way).
type Route struct {
	Pattern string
	Handler http.Handler
}

// StartServer starts serving the collector's metrics on addr ("host:port";
// use "127.0.0.1:0" to bind an ephemeral port and read it back from Addr).
// Extra routes are mounted after the built-ins.
func StartServer(addr string, c *Collector, extra ...Route) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", c.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (resolves the ephemeral port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener immediately, aborting in-flight
// scrapes. Prefer Shutdown for a clean exit.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight scrapes
// to complete (or ctx to expire, whichever comes first) before releasing
// the listener — the graceful counterpart of Close, so a host process
// (poseidond, tests) can drain /metrics readers instead of cutting them
// off mid-response and leaking half-written sockets.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
