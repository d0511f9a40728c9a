package obs

// The live observability server: the repo's first net/http surface.
// `pythia-bench -serve addr` mounts it for the duration of a sweep,
// and any long-running embedder (e.g. the nginx-like serving loop) can
// reuse NewMux/StartServer to expose the same endpoints:
//
//	/healthz        liveness probe ("ok")
//	/debug/vars     the expvar registry (the Default metrics registry
//	                publishes itself there as "pythia")
//	/debug/pprof/*  the standard Go profiling handlers
//	/metricz        the metrics registry as aligned text — identical to
//	                the CLIs' `-metrics -` dump
//	/hotsites?n=N   top-N IR sites by attributed cycles (JSON)
//	/progress       per-experiment sweep completion (JSON)
//	/api/journal    the causal run journal's raw events (JSON)
//	/api/spans      reconstructed journal spans with parent links (JSON)
//	/api/coverage   defense-coverage rows per profile x scheme (JSON)
//	/api/attribution  overhead attribution rows per profile x scheme
//	                  (JSON; 404 unless the session armed attribution)
//	/api/histo      latency histogram snapshots with quantiles (JSON;
//	                404 unless the session carries a metrics registry)
//
// Every handler reads shared state that the running sweep is mutating
// concurrently; all of it goes through the owning types' locks
// (Registry, SiteProf, Progress, Journal, CoverageAgg), so serving is
// race-free by construction — obs/server_test.go pins that under -race.

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/perf"
)

// NewMux builds the observability handler set over the session's
// state. Nil session fields degrade gracefully: /hotsites serves an
// empty list, /progress an empty snapshot, /api/journal, /api/spans and
// /api/coverage empty collections, and /metricz an empty dump.
func NewMux(sess *Session) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if sess != nil && sess.Metrics != nil {
			sess.Metrics.WriteText(w)
		}
	})
	mux.HandleFunc("/hotsites", func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "hotsites: n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		top := []perf.HotSite{}
		if sess != nil && sess.Sites != nil {
			top = sess.Sites.Top(n)
		}
		writeJSON(w, struct {
			Sites []perf.HotSite `json:"sites"`
		}{top})
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		var snap ProgressSnapshot
		if sess != nil && sess.Progress != nil {
			snap = sess.Progress.Snapshot()
		}
		if snap.Done == nil {
			snap.Done = []ProgressEntry{}
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/api/journal", func(w http.ResponseWriter, r *http.Request) {
		events := []JournalEvent{}
		if sess != nil && sess.Journal != nil {
			events = sess.Journal.Events()
		}
		writeJSON(w, struct {
			Events []JournalEvent `json:"events"`
		}{events})
	})
	mux.HandleFunc("/api/spans", func(w http.ResponseWriter, r *http.Request) {
		spans := []JournalSpan{}
		if sess != nil && sess.Journal != nil {
			spans = sess.Journal.Spans()
		}
		writeJSON(w, struct {
			Spans []JournalSpan `json:"spans"`
		}{spans})
	})
	mux.HandleFunc("/api/coverage", func(w http.ResponseWriter, r *http.Request) {
		rows := []CoverageRow{}
		if sess != nil && sess.Coverage != nil {
			rows = sess.Coverage.Rows()
		}
		writeJSON(w, struct {
			Coverage []CoverageRow `json:"coverage"`
		}{rows})
	})
	// The attribution and histogram endpoints 404 when their feature is
	// not armed, unlike the older collections above: an empty answer
	// from a surface that was never collecting would read as "measured,
	// found nothing", which is the wrong signal for cost accounting.
	mux.HandleFunc("/api/attribution", func(w http.ResponseWriter, r *http.Request) {
		if sess == nil || sess.Attrib == nil {
			http.Error(w, "attribution not armed", http.StatusNotFound)
			return
		}
		rows := sess.Attrib.Rows()
		if rows == nil {
			rows = []AttribRow{}
		}
		writeJSON(w, struct {
			Attribution []AttribRow `json:"attribution"`
		}{rows})
	})
	mux.HandleFunc("/api/histo", func(w http.ResponseWriter, r *http.Request) {
		if sess == nil || sess.Metrics == nil {
			http.Error(w, "metrics not armed", http.StatusNotFound)
			return
		}
		histos := sess.Metrics.Snapshot().Histos
		if histos == nil {
			histos = map[string]HistoSnapshot{}
		}
		writeJSON(w, struct {
			Histos map[string]HistoSnapshot `json:"histos"`
		}{histos})
	})
	return mux
}

// writeJSON marshals first, so an encode failure becomes a clean 500
// instead of a truncated 200 body.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// shutdownTimeout bounds how long Close waits for in-flight handlers.
const shutdownTimeout = 2 * time.Second

// Read timeouts bound how long a client may hold a connection without
// finishing its request, so a stalled client cannot pin a connection
// and its goroutine forever. There is no write timeout: the
// /debug/pprof/profile response streams for 30 s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// Server is a running observability HTTP server.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	serveErr chan error
}

// StartServer listens on addr (e.g. "127.0.0.1:0" for an ephemeral
// port) and serves the session's observability mux in a background
// goroutine. The returned Server reports the bound address and closes
// on demand; the background Serve error is captured and surfaced by
// Close.
func StartServer(addr string, sess *Session) (*Server, error) {
	return StartServerHandler(addr, NewMux(sess))
}

// StartServerHandler is StartServer over a caller-supplied handler, for
// embedders that mount extra routes on top of NewMux — pythiad adds its
// /api/v1 service surface to the observability set and inherits the
// same lifecycle, including Close's graceful drain.
func StartServerHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	s := &Server{ln: ln, srv: srv, serveErr: make(chan error, 1)}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully, letting in-flight handlers
// finish within a short timeout, and returns the first real error from
// either the shutdown or the background Serve loop.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
