package service

// The HTTP surface. Mount registers the /api/v1 routes on any mux —
// pythiad mounts them over obs.NewMux, so the observability endpoints
// (/healthz, /metricz, /api/journal, /api/coverage, /debug/pprof/*)
// come along for free.
//
//	POST /api/v1/submit   {source, scheme, stdin, fuel, max_pages,
//	                       tenant, forensics, coverage}
//	                      -> SubmitResponse JSON
//	                      400 malformed / out-of-contract / build error
//	                      429 queue or tenant quota saturated (Retry-After)
//	                      503 draining for shutdown (Retry-After)
//	                      500 the build or run panicked
//	GET  /api/v1/stats    engine stats: queue, pipeline, artifact store
//	GET  /api/v1/tenants  per-tenant counters

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/artifact"
	"repro/internal/core"
)

// SubmitRequest is the POST /api/v1/submit body.
type SubmitRequest struct {
	// Source is the mini-C program (required).
	Source string `json:"source"`
	// Scheme is the defense to harden with: vanilla, cpa, pythia, dfi.
	Scheme string `json:"scheme"`
	// Stdin is the program's input — attacks are mounted purely here.
	Stdin string `json:"stdin,omitempty"`
	// Fuel bounds interpreted instructions (0 = server default; values
	// above the server ceiling are rejected, not clamped).
	Fuel int64 `json:"fuel,omitempty"`
	// MaxPages bounds committed simulated memory in 4 KiB pages (0 =
	// server default; above-ceiling rejected).
	MaxPages int `json:"max_pages,omitempty"`
	// Tenant attributes the request for quotas and counters (falls back
	// to the X-Pythia-Tenant header, then "anonymous").
	Tenant string `json:"tenant,omitempty"`
	// Forensics includes the flight-recorder window on faults.
	Forensics bool `json:"forensics,omitempty"`
	// Coverage includes the run's per-check-site tally.
	Coverage bool `json:"coverage,omitempty"`
}

// SubmitResponse is the submit endpoint's 200 body.
type SubmitResponse struct {
	// Verdict classifies the run by the shared attack oracle
	// (attack.Classify): clean, bent, detected, or crashed.
	Verdict string `json:"verdict"`
	Scheme  string `json:"scheme"`
	Tenant  string `json:"tenant"`
	Ret     int64  `json:"ret"`
	Stdout  string `json:"stdout"`
	// Fault details the terminating fault, nil on clean runs.
	Fault *FaultInfo `json:"fault,omitempty"`
	// CacheHit: this (source, scheme) was already in the engine's
	// in-process pipeline memo — the submission paid zero compile/harden
	// work.
	CacheHit    bool    `json:"cache_hit"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Modeled execution counters and footprint.
	Cycles        float64 `json:"cycles"`
	Instrs        int64   `json:"instrs"`
	PAInstrs      int64   `json:"pa_instrs"`
	Pages         int     `json:"pages"`
	StaticSites   int     `json:"static_sites"`
	ExecutedSites int     `json:"executed_sites"`
	// Coverage maps check-site ids to the run's obs.SiteCount tally,
	// when requested: an object ({} when no check ran), never null.
	Coverage any `json:"coverage,omitempty"`
}

// FaultInfo is the wire form of a vm.Fault.
type FaultInfo struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
	Func  string `json:"func,omitempty"`
	Instr string `json:"instr,omitempty"`
	// Forensics is the flight-recorder report, when requested.
	Forensics any `json:"forensics,omitempty"`
}

// StatsResponse is the /api/v1/stats body.
type StatsResponse struct {
	UptimeS    float64            `json:"uptime_s"`
	Draining   bool               `json:"draining"`
	Workers    int                `json:"workers"`
	QueueDepth int                `json:"queue_depth"`
	QueueCap   int                `json:"queue_cap"`
	Tenants    int                `json:"tenants"`
	Pipeline   core.PipelineStats `json:"pipeline"`
	Artifacts  *artifact.Stats    `json:"artifacts,omitempty"`
	Quotas     map[string]int64   `json:"quotas"`
}

// Mount registers the service API on mux.
func (e *Engine) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/submit", e.handleSubmit)
	mux.HandleFunc("/api/v1/stats", e.handleStats)
	mux.HandleFunc("/api/v1/tenants", e.handleTenants)
}

// writeJSON mirrors the obs server's marshal-first shape: an encode
// failure becomes a clean 500, never a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

type errBody struct {
	Error string `json:"error"`
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errBody{"submit is POST-only"})
		return
	}
	// Fast-path the drain check before reading the body: a shutting-down
	// server should shed load as cheaply as possible.
	if e.Draining() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{ErrDraining.Error()})
		return
	}
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, int64(e.cfg.MaxSourceBytes)+64<<10)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{"decode: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Pythia-Tenant")
	}
	resp, err := e.Submit(&req)
	if err != nil {
		var reqErr *RequestError
		var tenErr *TenantSaturatedError
		switch {
		case errors.As(err, &reqErr):
			writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		case errors.Is(err, ErrSaturated), errors.As(err, &tenErr):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errBody{err.Error()})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errBody{err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errBody{err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	depth, capacity := e.QueueDepth()
	resp := StatsResponse{
		UptimeS:    e.Uptime().Seconds(),
		Draining:   e.Draining(),
		Workers:    e.cfg.Workers,
		QueueDepth: depth,
		QueueCap:   capacity,
		Pipeline:   e.pl.Stats(),
		Quotas: map[string]int64{
			"max_fuel":        e.cfg.MaxFuel,
			"default_fuel":    e.cfg.DefaultFuel,
			"max_pages":       int64(e.cfg.MaxPages),
			"default_pages":   int64(e.cfg.DefaultPages),
			"tenant_inflight": int64(e.cfg.TenantInflight),
			"max_source":      int64(e.cfg.MaxSourceBytes),
		},
	}
	e.mu.Lock()
	resp.Tenants = len(e.tenants)
	e.mu.Unlock()
	if st := e.pl.Store(); st != nil {
		if stats, err := st.Stats(); err == nil {
			resp.Artifacts = &stats
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Engine) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tenants []TenantSnapshot `json:"tenants"`
	}{e.Tenants()})
}
