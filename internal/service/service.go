// Package service is the hardening-as-a-service engine behind
// cmd/pythiad: it accepts mini-C submissions, pulls them through the
// staged memoized compile/harden pipeline (internal/core, optionally
// backed by the persistent artifact store), executes them in the
// decoded VM under per-request fuel and page quotas, and returns a
// verdict plus forensics.
//
// The engine is a worker-pool admission controller. Submissions pass a
// per-tenant concurrency quota, then a bounded queue; when either is
// saturated the submit is rejected immediately with a typed error the
// HTTP layer maps to 429 (never unbounded blocking), and queue wait is
// recorded in the service.queue_wait.ms histogram — the same
// saturation signal the bench prewarm pool emits. Draining (graceful
// shutdown) rejects new submissions with a typed error mapped to 503
// while in-flight requests complete.
//
// Isolation: every run executes on a fresh vm.Machine over a fresh
// simulated address space, so tenants never share memory; quotas
// (fuel, pages, admission slots) are what keeps one tenant from
// starving the rest. Compile/harden artifacts ARE deliberately shared
// across tenants — they are content-addressed by source bytes, so a
// cache hit can never leak anything the tenant did not already submit.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Config sizes the engine. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of executor goroutines (default NumCPU).
	Workers int
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// DefaultFuel / MaxFuel: instruction budget applied when a request
	// omits fuel, and the per-request ceiling (defaults 50M / 200M).
	DefaultFuel int64
	MaxFuel     int64
	// DefaultPages / MaxPages: simulated page quota (4 KiB pages) when
	// omitted, and the ceiling (defaults 4096 = 16 MiB / 16384 = 64 MiB).
	DefaultPages int
	MaxPages     int
	// MaxSourceBytes caps submission size (default 256 KiB).
	MaxSourceBytes int
	// TenantInflight caps one tenant's concurrently admitted requests
	// (default 2×Workers), so a single tenant cannot occupy the whole
	// queue.
	TenantInflight int
	// CacheDir backs the pipeline with a persistent artifact store
	// shared across processes ("" = in-process memoization only).
	CacheDir string
	// CacheMaxBytes bounds the store: after each cache-filling build the
	// engine prunes oldest-mtime-first down to this budget (0 = unbounded).
	CacheMaxBytes int64
	// Seed is the machine seed for every run (default 42, the same seed
	// every CLI uses, so service verdicts match pythiac's).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultFuel <= 0 {
		c.DefaultFuel = 50_000_000
	}
	if c.MaxFuel <= 0 {
		c.MaxFuel = vm.DefaultFuel
	}
	if c.DefaultPages <= 0 {
		c.DefaultPages = 4096
	}
	if c.MaxPages <= 0 {
		c.MaxPages = 16384
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 256 << 10
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = 2 * c.Workers
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Admission errors. The HTTP layer maps these to status codes; library
// embedders switch on them directly.
var (
	// ErrDraining: the engine is shutting down — 503 Service Unavailable.
	ErrDraining = errors.New("service: draining, not accepting submissions")
	// ErrSaturated: the bounded queue is full — 429 Too Many Requests.
	ErrSaturated = errors.New("service: admission queue full")
)

// TenantSaturatedError: one tenant hit its concurrency quota — 429.
type TenantSaturatedError struct {
	Tenant string
	Limit  int
}

func (e *TenantSaturatedError) Error() string {
	return fmt.Sprintf("service: tenant %q at its admission quota (%d in flight)", e.Tenant, e.Limit)
}

// InternalError answers a request whose build or run panicked — 500.
// The panic is the service's fault, not the submission's, and the
// engine recovers it per job, so it ends only that request.
type InternalError struct{ Panic string }

func (e *InternalError) Error() string { return "service: internal error: " + e.Panic }

// RequestError is a malformed or out-of-contract submission — 400.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return "service: bad request: " + e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// Engine is the running service: a pipeline, a worker pool, and the
// tenant registry. Construct with New; Close drains it.
type Engine struct {
	cfg   Config
	pl    *core.Pipeline
	queue chan *job

	workers   sync.WaitGroup // executor goroutines
	inflight  sync.WaitGroup // admitted jobs not yet answered
	closeOnce sync.Once

	mu       sync.Mutex
	draining bool
	tenants  map[string]*tenant

	pruneMu sync.Mutex
	start   time.Time

	// runHook, when set (tests only), runs at the head of each job's
	// execution — the seam for deterministic saturation tests.
	runHook func(*job)
}

type job struct {
	req    *SubmitRequest
	scheme core.Scheme
	digest string // hex sha256 of the source — the submission identity
	fuel   int64
	pages  int
	tName  string
	enq    time.Time
	done   chan jobOut
}

type jobOut struct {
	resp *SubmitResponse
	err  error
}

// New builds and starts an engine: opens the cache directory when
// configured, applies defaults, and launches the worker pool.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	pl := core.NewPipeline()
	if cfg.CacheDir != "" {
		var err error
		if pl, err = core.OpenPipeline(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:     cfg,
		pl:      pl,
		queue:   make(chan *job, cfg.QueueDepth),
		tenants: make(map[string]*tenant),
		start:   time.Now(),
	}
	if cfg.CacheMaxBytes > 0 && pl.Store() != nil {
		// Bound a pre-existing cache dir before serving from it.
		if _, err := pl.Store().Prune(cfg.CacheMaxBytes); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workers.Add(1)
		go e.worker()
	}
	return e, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Pipeline exposes the engine's build pipeline for stats surfaces.
func (e *Engine) Pipeline() *core.Pipeline { return e.pl }

// Draining reports whether the engine has begun shutdown.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// BeginDrain stops admissions: every subsequent Submit fails with
// ErrDraining while already-admitted jobs keep running. Idempotent.
func (e *Engine) BeginDrain() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
}

// Close drains and stops the engine: no new admissions, in-flight jobs
// complete and are answered, workers exit. Idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.BeginDrain()
		// Admissions only happen under mu with draining false, so once the
		// flag is up the inflight count can only fall — Wait is race-free.
		e.inflight.Wait()
		close(e.queue)
		e.workers.Wait()
	})
}

// Submit runs one request through admission, the queue, and a worker,
// and blocks until its response (the HTTP handler's whole lifetime).
func (e *Engine) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	j, err := e.prepare(req)
	if err != nil {
		obs.Count("service.rejected.bad_request")
		return nil, err
	}
	if err := e.admit(j); err != nil {
		return nil, err
	}
	out := <-j.done
	return out.resp, out.err
}

// prepare validates a request into a job. Out-of-contract quotas are
// rejected, not silently clamped: a client asking for more fuel than
// the ceiling should know it is not getting it.
func (e *Engine) prepare(req *SubmitRequest) (*job, error) {
	if req.Source == "" {
		return nil, badRequest("empty source")
	}
	if len(req.Source) > e.cfg.MaxSourceBytes {
		return nil, badRequest("source is %d bytes, cap is %d", len(req.Source), e.cfg.MaxSourceBytes)
	}
	scheme, ok := core.ParseScheme(req.Scheme)
	if !ok {
		return nil, badRequest("unknown scheme %q (want vanilla, cpa, pythia, dfi)", req.Scheme)
	}
	fuel := req.Fuel
	switch {
	case fuel < 0 || fuel > e.cfg.MaxFuel:
		return nil, badRequest("fuel %d outside [0, %d]", fuel, e.cfg.MaxFuel)
	case fuel == 0:
		fuel = e.cfg.DefaultFuel
	}
	pages := req.MaxPages
	switch {
	case pages < 0 || pages > e.cfg.MaxPages:
		return nil, badRequest("max_pages %d outside [0, %d]", pages, e.cfg.MaxPages)
	case pages == 0:
		pages = e.cfg.DefaultPages
	}
	tName := req.Tenant
	if tName == "" {
		tName = "anonymous"
	}
	sum := sha256.Sum256([]byte(req.Source))
	return &job{
		req:    req,
		scheme: scheme,
		digest: hex.EncodeToString(sum[:]),
		fuel:   fuel,
		pages:  pages,
		tName:  tName,
		done:   make(chan jobOut, 1),
	}, nil
}

// admit applies the tenant quota and the bounded queue. It never
// blocks: saturation is answered immediately so callers can back off.
func (e *Engine) admit(j *job) error {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		obs.Count("service.rejected.draining")
		return ErrDraining
	}
	t := e.tenantLocked(j.tName)
	if t.inflight >= e.cfg.TenantInflight {
		t.rejected++
		e.mu.Unlock()
		obs.Count("service.rejected.tenant")
		return &TenantSaturatedError{Tenant: j.tName, Limit: e.cfg.TenantInflight}
	}
	t.inflight++
	t.submits++
	// inflight.Add under mu, before draining can flip: Close's Wait then
	// races with nothing.
	e.inflight.Add(1)
	e.mu.Unlock()

	j.enq = time.Now()
	select {
	case e.queue <- j:
		obs.Count("service.submits")
		gaugeQueueDepth(len(e.queue))
		return nil
	default:
		e.mu.Lock()
		t.inflight--
		t.rejected++
		e.mu.Unlock()
		e.inflight.Done()
		obs.Count("service.rejected.saturated")
		return ErrSaturated
	}
}

// worker executes queued jobs until the queue closes.
func (e *Engine) worker() {
	defer e.workers.Done()
	for j := range e.queue {
		e.run(j)
	}
}

// run executes one admitted job end to end: queue-wait accounting,
// build + execute, tenant bookkeeping, response delivery.
func (e *Engine) run(j *job) {
	wait := time.Since(j.enq)
	obs.ObserveMS("service.queue_wait.ms", wait)
	gaugeQueueDepth(len(e.queue))
	resp, err := e.serve(j)
	if resp != nil {
		resp.Tenant = j.tName
		resp.QueueWaitMS = float64(wait.Nanoseconds()) / 1e6
	}

	e.mu.Lock()
	t := e.tenantLocked(j.tName)
	t.inflight--
	t.account(resp, err)
	e.mu.Unlock()

	j.done <- jobOut{resp: resp, err: err}
	e.inflight.Done()
	obs.Count("service.completed")
}

// serve runs the job's build and run, answering a panic in either with
// an InternalError: one bad submission must not end the daemon.
func (e *Engine) serve(j *job) (resp *SubmitResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, panicked(j, r, debug.Stack())
		}
	}()
	if e.runHook != nil {
		e.runHook(j)
	}
	defer obs.TraceSpan(fmt.Sprintf("submit %s [%s]", shortDigest(j.digest), j.req.Scheme), "service")()
	return e.execute(j)
}

// panicked counts a panic that ended a job's build or run, journals it
// with its stack, and returns the job's answer.
func panicked(j *job, value any, stack []byte) error {
	obs.Count("service.panics")
	obs.Point("service.panic", "service", map[string]string{
		"digest": j.digest, "scheme": j.req.Scheme, "tenant": j.tName,
		"panic": fmt.Sprint(value), "stack": string(stack),
	})
	return &InternalError{Panic: fmt.Sprint(value)}
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// execute builds the submission through the shared pipeline and runs
// it on a fresh, quota'd machine.
func (e *Engine) execute(j *job) (*SubmitResponse, error) {
	name := "submit-" + shortDigest(j.digest)
	prog, err := e.pl.Build(name, j.req.Source, j.scheme)
	if err != nil {
		var sp *core.StagePanic
		if errors.As(err, &sp) {
			return nil, panicked(j, sp.Value, sp.Stack)
		}
		// A compile or harden failure is the client's program, not the
		// service, so it maps to 400 — and it is memoized like any other
		// pipeline outcome, so resubmitting it stays cheap.
		return nil, badRequest("build: %v", err)
	}
	if !prog.MemoHit {
		e.maybePrune()
	}

	cfg := vm.Config{Seed: e.cfg.Seed, Fuel: j.fuel, MaxPages: j.pages}
	if j.req.Forensics {
		// The flight window reaches the response only on request, and an
		// armed recorder puts every instruction on the observed tick
		// path.
		cfg.Flight = obs.DefaultFlightWindow
	}
	m := vm.New(prog.Mod, cfg)
	m.Stdin.SetInput([]byte(j.req.Stdin))
	start := time.Now()
	res, err := m.Run("main")
	obs.ObserveMS("service.run.ms", time.Since(start))
	if err != nil {
		// Run errors mean the submission has no runnable main — still the
		// client's contract to meet.
		return nil, badRequest("run: %v", err)
	}

	resp := &SubmitResponse{
		Verdict:       attack.Classify(res).String(),
		Scheme:        j.req.Scheme,
		Ret:           int64(res.Ret),
		Stdout:        string(res.Stdout),
		CacheHit:      prog.MemoHit,
		Cycles:        res.Counters.Cycles,
		Instrs:        res.Counters.Instrs,
		PAInstrs:      res.Counters.PAInstrs,
		Pages:         m.Mem.Footprint(),
		StaticSites:   prog.Protection.PAInstrs(),
		ExecutedSites: res.SitesExecuted,
	}
	if res.Fault != nil {
		resp.Fault = &FaultInfo{
			Kind:  res.Fault.Kind.String(),
			Error: res.Fault.Err.Error(),
			Func:  res.Fault.Func,
			Instr: res.Fault.Instr,
		}
		if j.req.Forensics {
			resp.Fault.Forensics = res.Fault.Forensics
		}
	}
	if j.req.Coverage {
		// Every run carries its per-site tally; a run that reached no
		// check answers an empty object, not null.
		sites := res.Sites
		if sites == nil {
			sites = map[string]obs.SiteCount{}
		}
		resp.Coverage = sites
	}
	return resp, nil
}

// maybePrune bounds the artifact store after cache-filling builds.
// Serialized so concurrent misses trigger one walk, not a stampede.
func (e *Engine) maybePrune() {
	st := e.pl.Store()
	if st == nil || e.cfg.CacheMaxBytes <= 0 {
		return
	}
	e.pruneMu.Lock()
	defer e.pruneMu.Unlock()
	if _, err := st.Prune(e.cfg.CacheMaxBytes); err != nil {
		obs.Count("service.prune.errors")
	}
}

// QueueDepth reports current queue occupancy and capacity.
func (e *Engine) QueueDepth() (depth, capacity int) {
	return len(e.queue), cap(e.queue)
}

// Uptime reports how long the engine has been running.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

func gaugeQueueDepth(n int) {
	if reg := obs.CurrentMetrics(); reg != nil {
		reg.Gauge("service.queue.depth").Set(float64(n))
	}
}
