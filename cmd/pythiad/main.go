// Command pythiad is the hardening-as-a-service daemon: a persistent
// multi-tenant HTTP front end over the staged compile/harden pipeline
// and the decoded VM. Clients POST mini-C sources to /api/v1/submit
// and get back a verdict (the shared attack oracle's classification)
// plus execution counters and, on faults, forensics. Builds are
// memoized in-process and, with -cache-dir, in the persistent
// content-addressed artifact store, so a daemon restart keeps its
// compile/harden work.
//
// The service API is mounted over the observability mux, so the
// daemon serves /healthz, /metricz, /debug/pprof/*, /api/journal and
// /api/coverage alongside:
//
//	POST /api/v1/submit   {source, scheme, stdin, fuel, max_pages, tenant,
//	                       forensics, coverage}
//	GET  /api/v1/stats    engine, pipeline and artifact-store stats
//	GET  /api/v1/tenants  per-tenant counters
//
// Forensics and coverage are per request: "forensics": true arms the
// flight recorder for that run alone, and "coverage": true returns the
// run's own per-check-site tally. The daemon arms neither session-wide,
// so /api/coverage, which aggregates CLI sweeps (pythia-bench
// -coverage), stays empty here.
//
// Admission is bounded: a full queue or a tenant over its in-flight
// quota gets 429 with Retry-After, never unbounded blocking. SIGINT or
// SIGTERM drains gracefully — new submissions get 503 while in-flight
// requests finish — then exits 0.
//
// Usage:
//
//	pythiad -addr 127.0.0.1:8077
//	pythiad -cache-dir /var/cache/pythia -cache-max-bytes 104857600
//	pythiad -workers 8 -queue 128 -tenant-inflight 8 -journal d.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8077", "listen address (host:port; :0 picks an ephemeral port)")
		cacheDir    = flag.String("cache-dir", "", "persistent artifact store directory (\"\" = in-process memoization only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "artifact store budget; prunes oldest-first after cache-filling builds (0 = unbounded)")
		workers     = flag.Int("workers", 0, "executor goroutines (0 = NumCPU)")
		queue       = flag.Int("queue", 0, "admission queue depth (0 = default 64)")
		maxFuel     = flag.Int64("max-fuel", 0, "per-request fuel ceiling (0 = default)")
		maxPages    = flag.Int("max-pages", 0, "per-request page-quota ceiling, 4 KiB pages (0 = default)")
		tenantLimit = flag.Int("tenant-inflight", 0, "per-tenant concurrent admission quota (0 = 2x workers)")
		journalPath = flag.String("journal", "", "stream the causal run journal to this file as JSONL")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		usageError("unexpected arguments: %v", flag.Args())
	}
	if *cacheMax < 0 {
		usageError("-cache-max-bytes must be >= 0")
	}
	if *cacheMax > 0 && *cacheDir == "" {
		usageError("-cache-max-bytes needs -cache-dir")
	}
	if *workers < 0 || *queue < 0 || *maxFuel < 0 || *maxPages < 0 || *tenantLimit < 0 {
		usageError("sizing flags must be >= 0")
	}

	// Metrics and the journal (in memory unless -journal streams it)
	// are armed unconditionally: a service is long-running by nature,
	// so they are part of its contract, not an opt-in. Forensics and
	// coverage are answered per request, from the run itself.
	sess := &obs.Session{
		Journal: obs.NewJournal(),
		Metrics: obs.Default(),
	}
	outs = obs.Outputs{Journal: *journalPath}
	if err := outs.Start(sess); err != nil {
		usageError("%v", err)
	}

	engine, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxFuel:        *maxFuel,
		MaxPages:       *maxPages,
		TenantInflight: *tenantLimit,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMax,
	})
	if err != nil {
		fail(err)
	}

	mux := obs.NewMux(sess)
	engine.Mount(mux)
	srv, err := obs.StartServerHandler(*addr, mux)
	if err != nil {
		fail(err)
	}
	// The listen line goes to stderr so harnesses (and the cmd tests)
	// can scrape the bound port under -addr :0.
	fmt.Fprintf(os.Stderr, "pythiad: listening on %s (POST /api/v1/submit)\n", srv.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "pythiad: %v, draining\n", sig)

	// Shutdown order: stop admissions first so late HTTP requests get
	// 503, let the HTTP server finish in-flight handlers (2s grace),
	// then drain the engine's queue; exit closes the journal.
	engine.BeginDrain()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythiad: shutdown:", err)
	}
	engine.Close()
	fmt.Fprintln(os.Stderr, "pythiad: drained, bye")
	exit(0)
}

// outs carries the -journal flag; exit closes the journal on every path
// out of main after outs.Start.
var outs obs.Outputs

// usageError prints the diagnostic plus usage and exits 2 — the flag
// contract shared by every CLI in this repo.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pythiad: "+format+"\n", args...)
	flag.Usage()
	exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pythiad:", err)
	exit(1)
}

// exit writes the observability outputs and ends the process; a failed
// write turns a clean exit into exit 1.
func exit(code int) {
	if err := outs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythiad:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}
