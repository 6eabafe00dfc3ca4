package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// This file implements the live telemetry plane: an HTTP server exposing
//
//	/metrics       the Registry in Prometheus text exposition format
//	/debug/pprof/  the standard Go profiling endpoints
//	/run           the current RunStatus as JSON, or a live SSE stream
//	               (Accept: text/event-stream or ?stream=1)
//	/              a plain-text index of the above
//
// The server owns nothing but views: the Registry keeps being written by
// the training run, the RunFeed by the training loop. Serving adds the
// runtime collector to the registry, so a process that never calls Serve
// carries no process gauges in its snapshots.

// ServeConfig configures a telemetry server.
type ServeConfig struct {
	// Addr is the listen address, e.g. "127.0.0.1:9090"; port 0 picks a
	// free port (read it back from Server.Addr).
	Addr string
	// Registry is rendered by /metrics. Serving adds the runtime collector.
	Registry *Registry
	// Feed, when non-nil, backs the /run endpoint.
	Feed *RunFeed
	// Feeds, when non-nil, resolves named feeds for /run?job=<name> (and
	// /run/plan?job=<name>) — the serving plane's per-job telemetry hook.
	// It must be safe for concurrent use and return nil for unknown names.
	Feeds func(name string) *RunFeed
	// Health, when non-nil, backs /healthz: nil error answers 200 "ok",
	// an error answers 503 with the error text. A nil Health probe makes
	// /healthz always 200 (the process is serving).
	Health func() error
	// Ready backs /readyz the same way — the hook for gating traffic on
	// replication lag or WAL writability.
	Ready func() error
}

// Server is a running telemetry HTTP server. Close shuts it down without
// leaking goroutines: SSE subscribers are disconnected and in-flight
// handlers finish.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	feed  *RunFeed
	feeds func(name string) *RunFeed
	reg   *Registry

	mu     sync.Mutex
	closed bool
	served chan struct{} // closed when the serve goroutine exits
}

// Serve starts a telemetry server on cfg.Addr. It returns once the
// listener is bound; requests are handled on a background goroutine.
func Serve(cfg ServeConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen on %s: %w", cfg.Addr, err)
	}
	cfg.Registry.AddCollector(collectRuntime)
	s := &Server{ln: ln, feed: cfg.Feed, feeds: cfg.Feeds, reg: cfg.Registry,
		served: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/run/plan", s.handleRunPlan)
	mux.HandleFunc("/healthz", probeHandler(cfg.Health))
	mux.HandleFunc("/readyz", probeHandler(cfg.Ready))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		// ErrServerClosed is the normal shutdown path; anything else is
		// reported through the registry so a scraper would have seen it.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close shuts the server down: SSE subscribers are disconnected (the
// shared feed is closed), the listener closes, and Close waits for the
// serve goroutine to exit. Safe to call twice and on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.feed.Close()
	err := s.srv.Close()
	<-s.served
	return err
}

// handleIndex lists the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "corgipile telemetry\n\n"+
		"/metrics       Prometheus text exposition of the metrics registry\n"+
		"/run           current run status (JSON); ?stream=1 for SSE; ?job=<id> for one job\n"+
		"/run/plan      executed-plan profile (annotated tree; ?format=json, ?stream=1 for SSE, ?job=<id>)\n"+
		"/healthz       liveness probe (200 ok / 503 with reason)\n"+
		"/readyz        readiness probe (replication lag, WAL writability)\n"+
		"/debug/pprof/  Go profiling endpoints\n")
}

// probeHandler renders a health/readiness probe: 200 "ok" when the probe
// is absent or returns nil, 503 with the error text otherwise.
func probeHandler(probe func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if probe != nil {
			if err := probe(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}

// handleMetrics renders the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Connection-level failure; nothing useful left to send.
		return
	}
}

// resolveFeed picks the feed a /run request addresses: the per-job feed
// named by ?job= through the Feeds resolver, or the default feed. The
// second return value is a non-empty error message when no feed matches.
func (s *Server) resolveFeed(r *http.Request) (*RunFeed, string) {
	if job := r.URL.Query().Get("job"); job != "" {
		if s.feeds == nil {
			return nil, "no per-job feeds attached"
		}
		if f := s.feeds(job); f != nil {
			return f, ""
		}
		return nil, "unknown job " + job
	}
	if s.feed == nil {
		return nil, "no run feed attached"
	}
	return s.feed, ""
}

// handleRun serves the live run feed: a JSON snapshot by default, an SSE
// stream when the client asks for text/event-stream (or ?stream=1).
// ?job=<id> selects a per-job feed when a resolver is attached.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	feed, errMsg := s.resolveFeed(r)
	if feed == nil {
		http.Error(w, errMsg, http.StatusNotFound)
		return
	}
	if wantsStream(r) {
		streamSSE(w, r, feed.Subscribe)
		return
	}
	st, seq := feed.Status()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		RunStatus
		Updates int64 `json:"updates"`
	}{st, seq})
}

// handleRunPlan serves the executed-plan profile: the live annotated tree
// as text by default, the full node tree with ?format=json, or an SSE
// stream of per-epoch JSON snapshots with ?stream=1 (or Accept:
// text/event-stream). ?job=<id> selects a per-job feed when a resolver is
// attached.
func (s *Server) handleRunPlan(w http.ResponseWriter, r *http.Request) {
	feed, errMsg := s.resolveFeed(r)
	if feed == nil {
		http.Error(w, errMsg, http.StatusNotFound)
		return
	}
	if wantsStream(r) {
		streamSSE(w, r, feed.SubscribePlan)
		return
	}
	p, _ := feed.PlanStatus()
	if p == nil {
		http.Error(w, "no plan published yet (is the run profiled? pass -explain)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		out, err := p.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(out)
		w.Write([]byte("\n"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "epoch %d\n", p.Epoch)
	p.WriteText(w, true)
}

// wantsStream reports whether a /run or /run/plan request asks for SSE
// (?stream=1 or Accept: text/event-stream).
func wantsStream(r *http.Request) bool {
	return r.URL.Query().Get("stream") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamSSE streams a feed topic as server-sent events — the current value
// first, so a late subscriber sees something immediately, then every update
// — until the client disconnects or the feed closes (server shutdown or job
// completion).
func streamSSE(w http.ResponseWriter, r *http.Request, subscribe func() (<-chan []byte, func())) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers immediately: an SSE client must see the stream open
	// before the first epoch publishes, not block until it does.
	fl.Flush()

	ch, cancel := subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case msg, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", msg)
			fl.Flush()
		}
	}
}
