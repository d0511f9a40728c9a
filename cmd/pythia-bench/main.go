// Command pythia-bench regenerates every table and figure of the paper's
// evaluation on the simulated machine.
//
// Usage:
//
//	pythia-bench                  # run every experiment
//	pythia-bench -experiment fig4a
//	pythia-bench -quick           # 3-benchmark smoke subset
//	pythia-bench -list
//	pythia-bench -format markdown
//	pythia-bench -parallel 4      # pre-warm worker count (0 = GOMAXPROCS)
//	pythia-bench -json            # one machine-readable JSON document
//	pythia-bench -cpuprofile cpu.out -memprofile mem.out
//	pythia-bench -trace out.json  # Chrome trace_event timeline (derived from the journal)
//	pythia-bench -journal j.jsonl # causal run journal, one JSON event per line
//	pythia-bench -coverage        # defense-coverage report (static vs exercised check sites)
//	pythia-bench -hotsites 20     # top-N IR sites by attributed cycles
//	pythia-bench -attribution 5   # overhead attribution: per-category cycle
//	                              # decomposition vs vanilla, top-5 sites per cell
//	pythia-bench -metrics m.json  # metrics registry dump ("-" = text to stderr)
//	pythia-bench -cache-dir .pythia-cache  # persistent compile/harden artifacts
//	pythia-bench -suite 3x2x3     # generated parameterized suite instead of
//	                              # the 16 fixed profiles (ptr x depth x chan)
//
// Continuous benchmarking:
//
//	pythia-bench -quick -repeat 3 -save BENCH_abc123.json
//	pythia-bench -quick -repeat 3 -baseline BENCH_abc123.json -compare
//	pythia-bench -serve 127.0.0.1:8080   # live observability server
//
// -repeat re-runs the whole sweep N times with a fresh run cache each
// time, collecting wall-time samples; modeled metrics are deterministic
// and identical across repeats. -save appends a history record (env
// fingerprint, per-run modeled cycles, wall samples, metrics snapshot)
// to the file. -compare measures the current run against the newest
// record in -baseline: modeled metrics gate the exit code (non-zero on
// growth beyond -threshold percent), wall times are judged with robust
// statistics and reported only. -serve exposes /healthz, /debug/vars,
// /debug/pprof/*, /hotsites and /progress while the sweep runs.
//
// All (profile, scheme) executions the selected experiments declare are
// pre-warmed through a shared memoized run cache, so overlapping
// experiments pay for each pair once. Tables go to stdout; per-experiment
// wall times and cache statistics go to stderr, keeping the table stream
// byte-identical between sequential fresh and parallel cached runs.
// The observability flags (-trace, -journal, -coverage, -hotsites,
// -attribution, -metrics, -serve) likewise leave stdout untouched:
// traces, journals and metrics go to their files, the hot-site,
// coverage and attribution reports to stderr, the server to its socket.
//
// -attribution N arms the overhead attribution engine: every hardened
// run's per-check-site cycle profile is diffed against the vanilla run
// of the same source and decomposed into check-kind categories (pa,
// canary, dfi, meta, residual) that provably sum to the total overhead
// delta; the top-N costliest sites of each cell are listed. The same
// data is embedded in -save records (schema v2), so a later -compare
// can blame a regression on the categories and sites that grew.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/workload"
)

// renderers is the single place the -format flag is resolved; unknown
// formats are rejected before any experiment runs.
var renderers = map[string]func(*report.Table) string{
	"ascii":    (*report.Table).String,
	"markdown": (*report.Table).Markdown,
	"csv":      (*report.Table).CSV,
}

type jsonTable struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`

	// WallMSSamples carries one wall time per -repeat (ElapsedMS is the
	// first sample, kept for compatibility).
	WallMSSamples []float64 `json:"wall_ms_samples,omitempty"`

	// Run-cache traffic attributed to this experiment (delta across its
	// Run call; prewarmed work shows up as hits here).
	CacheRunHits   int `json:"cache_run_hits"`
	CacheRunMisses int `json:"cache_run_misses"`
}

type jsonCompare struct {
	Baseline    string      `json:"baseline"`
	Threshold   float64     `json:"threshold_pct"`
	Regressions []string    `json:"regressions"`
	Tables      []jsonTable `json:"tables"`
}

type jsonDoc struct {
	Quick       bool                 `json:"quick"`
	Parallel    int                  `json:"parallel"`
	Repeat      int                  `json:"repeat"`
	Env         bench.EnvFingerprint `json:"env"`
	PoolSize    int                  `json:"pool_size"`
	PrewarmMS   float64              `json:"prewarm_ms"`
	TotalMS     float64              `json:"total_ms"`
	CacheStats  bench.Stats          `json:"cache_stats"`
	Experiments []jsonTable          `json:"experiments"`
	Compare     *jsonCompare         `json:"compare,omitempty"`
}

// outs carries the observability flags; exit writes them on every
// failing path out of main after outs.Start, and main closes them
// before its normal return.
var outs obs.Outputs

// usageError prints the diagnostic plus usage and exits 2 — the flag
// validation convention shared by every error path below.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pythia-bench: "+format+"\n", args...)
	flag.Usage()
	exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pythia-bench:", err)
	exit(1)
}

// exit writes the observability outputs and ends the process; a failed
// write turns a clean exit into exit 1.
func exit(code int) {
	if err := outs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-bench:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// checkWritable verifies the file at path can be created or appended
// to, without truncating existing content.
func checkWritable(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

func main() {
	var (
		expID       = flag.String("experiment", "", "run only this experiment id (see -list)")
		quick       = flag.Bool("quick", false, "run on a 3-benchmark subset")
		format      = flag.String("format", "ascii", "output format: ascii, csv, markdown")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		parallel    = flag.Int("parallel", 0, "pre-warm worker pool size (0 = GOMAXPROCS)")
		jsonOut     = flag.Bool("json", false, "emit one machine-readable JSON document instead of rendered tables")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file (derived from the causal journal)")
		journal     = flag.String("journal", "", "stream the causal run journal to this file as JSONL")
		coverage    = flag.Bool("coverage", false, "report defense-check coverage (static vs exercised sites) to stderr")
		hotsites    = flag.Int("hotsites", 0, "report the top-N IR sites by attributed cycles (0 = off)")
		attribution = flag.Int("attribution", 0, "report per-category overhead attribution vs vanilla with the top-N sites per cell (0 = off)")
		metrics     = flag.String("metrics", "", "write a metrics registry dump to this file (\"-\" = text to stderr)")
		repeat      = flag.Int("repeat", 1, "run the sweep N times (fresh run cache each) collecting wall-time samples")
		savePath    = flag.String("save", "", "append a bench history record (BENCH_<rev>.json format) to this file")
		baseline    = flag.String("baseline", "", "history file to compare against (newest record)")
		compare     = flag.Bool("compare", false, "compare this run against -baseline and render a verdict table")
		threshold   = flag.Float64("threshold", 0, "allowed modeled-metric growth percent before -compare regresses")
		serveAddr   = flag.String("serve", "", "serve live observability HTTP endpoints on this address during the run")
		cacheDir    = flag.String("cache-dir", "", "persist compile/harden artifacts in this directory (content-addressed, shared across processes)")
		suiteSpec   = flag.String("suite", "", "run on a generated parameterized suite instead of the fixed profiles (PxDxC, e.g. 3x2x3)")
	)
	flag.Parse()

	render, ok := renderers[*format]
	if !ok {
		usageError("invalid -format %q (valid: ascii, csv, markdown)", *format)
	}
	if *repeat < 1 {
		usageError("invalid -repeat %d: need at least one run per experiment", *repeat)
	}
	if *attribution < 0 {
		usageError("invalid -attribution %d: need a non-negative site count", *attribution)
	}
	if *compare && *baseline == "" {
		usageError("-compare needs -baseline <file> to compare against")
	}
	var suiteProfiles []workload.Profile
	if *suiteSpec != "" {
		if *quick {
			usageError("-quick selects among the fixed profiles and cannot combine with -suite")
		}
		spec, err := workload.ParseSuite(*suiteSpec)
		if err != nil {
			usageError("invalid -suite: %v", err)
		}
		suiteProfiles = spec.Profiles()
	}
	if *cacheDir != "" {
		// Validate eagerly so a bad path fails before any work runs.
		if _, err := core.OpenPipeline(*cacheDir); err != nil {
			usageError("invalid -cache-dir: %v", err)
		}
	}
	var baseRec *bench.Record
	if *compare {
		var err error
		if baseRec, err = bench.LatestRecord(*baseline); err != nil {
			usageError("invalid -baseline: %v", err)
		}
	}
	if *savePath != "" {
		if err := checkWritable(*savePath); err != nil {
			usageError("unwritable -save path: %v", err)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pythia-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pythia-bench:", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	exps := bench.All()
	if *expID != "" {
		e, err := bench.ByID(*expID)
		if err != nil {
			fail(err)
		}
		exps = []bench.Experiment{e}
	}

	// outs arms the journal, the registry and progress for its flags;
	// the bench adds its own collectors. -serve arms every collector its
	// endpoints read, -save snapshots the registry into its record, and
	// attribution arms for -save and -compare too, so every history
	// record carries blame data for the perf gate.
	sess := &obs.Session{}
	if *coverage {
		sess.Coverage = obs.NewCoverageAgg()
	}
	if *hotsites > 0 || *serveAddr != "" {
		sess.Sites = perf.NewSiteProf()
	}
	if *savePath != "" {
		sess.Metrics = obs.Default()
	}
	if *attribution > 0 || *savePath != "" || *compare || *serveAddr != "" {
		sess.Attrib = obs.NewAttribAgg()
	}
	if *serveAddr != "" {
		// Declare the sweep before the server answers its first
		// /progress request.
		sess.Progress = &obs.Progress{}
		sess.Progress.Begin(len(exps)**repeat, *repeat)
	}
	outs = obs.Outputs{Journal: *journal, Trace: *traceOut, Metrics: *metrics, Serve: *serveAddr}
	if err := outs.Start(sess); err != nil {
		usageError("%v", err)
	}

	// The repeat loop: each repeat gets a fresh config (and with it a
	// fresh run cache), so every repeat pays the full modeled execution
	// and its wall times are honest samples rather than cache lookups.
	// Tables and the JSON document come from the first repeat — modeled
	// results are deterministic, so later repeats only add wall samples.
	doc := jsonDoc{Quick: *quick, Parallel: *parallel, Repeat: *repeat, Env: bench.Fingerprint()}
	tables := make([]*report.Table, len(exps))
	wallSamples := make([][]float64, len(exps))
	var totalMS, prewarmMS []float64
	var firstRunner *bench.Runner
	start := time.Now()
	for rep := 1; rep <= *repeat; rep++ {
		cfg := bench.DefaultConfig()
		cfg.Quick = *quick
		cfg.Parallel = *parallel
		if suiteProfiles != nil {
			cfg.Profiles = suiteProfiles
		}
		if *cacheDir != "" {
			// A fresh Pipeline per repeat over the same directory: repeats
			// keep an honest in-process cold start while the compile and
			// harden stages come warm from disk.
			pl, err := core.OpenPipeline(*cacheDir)
			if err != nil {
				fail(err)
			}
			cfg.Pipeline = pl
		}

		repStart := time.Now()
		pool := cfg.Prewarm(exps)
		prewarm := time.Since(repStart)
		prewarmMS = append(prewarmMS, ms(prewarm))
		if rep == 1 {
			doc.PoolSize = pool
			doc.PrewarmMS = ms(prewarm)
		}

		for i, e := range exps {
			before := cfg.Runner().Stats()
			if sess.Progress != nil {
				sess.Progress.StartExperiment(e.ID, rep)
			}
			t0 := time.Now()
			endSpan := obs.TraceSpan("experiment "+e.ID, "bench")
			tbl, err := e.Run(cfg)
			endSpan()
			elapsed := time.Since(t0)
			if sess.Progress != nil {
				sess.Progress.FinishExperiment(e.ID, rep, elapsed)
			}
			if err != nil {
				fail(fmt.Errorf("%s: %v", e.ID, err))
			}
			wallSamples[i] = append(wallSamples[i], ms(elapsed))
			if rep > 1 {
				continue
			}
			tables[i] = tbl
			after := cfg.Runner().Stats()
			if *jsonOut {
				doc.Experiments = append(doc.Experiments, jsonTable{
					ID: tbl.ID, Title: tbl.Title, Columns: tbl.Columns,
					Rows: tbl.Rows, Notes: tbl.Notes, ElapsedMS: ms(elapsed),
					CacheRunHits:   after.RunHits - before.RunHits,
					CacheRunMisses: after.RunMisses - before.RunMisses,
				})
				continue
			}
			fmt.Println(render(tbl))
			fmt.Fprintf(os.Stderr, "# %-12s %7.3fs\n", e.ID, elapsed.Seconds())
		}
		totalMS = append(totalMS, ms(time.Since(repStart)))
		if rep == 1 {
			firstRunner = cfg.Runner()
		} else {
			fmt.Fprintf(os.Stderr, "# repeat %d/%d %7.3fs\n", rep, *repeat, time.Since(repStart).Seconds())
		}
	}
	if sess.Progress != nil {
		sess.Progress.Finish()
	}

	total := time.Since(start)
	stats := firstRunner.Stats()
	if *jsonOut {
		doc.TotalMS = ms(total)
		doc.CacheStats = stats
		if *repeat > 1 {
			for i := range doc.Experiments {
				doc.Experiments[i].WallMSSamples = wallSamples[i]
			}
		}
	} else {
		fmt.Fprintf(os.Stderr, "# total %.3fs (prewarm %.3fs); runs %d executed / %d served cached; analyses %d executed / %d served cached\n",
			total.Seconds(), prewarmMS[0]/1e3,
			stats.RunMisses, stats.RunHits, stats.AnalysisMisses, stats.AnalysisHits)
	}

	// History: build the record once, then save and/or compare with it.
	var rec *bench.Record
	if *savePath != "" || *compare {
		rec = &bench.Record{
			SchemaVersion: bench.HistorySchema,
			SavedAt:       time.Now().UTC().Format(time.RFC3339),
			Env:           doc.Env,
			Quick:         *quick,
			Repeat:        *repeat,
			TotalMS:       totalMS,
			PrewarmMS:     prewarmMS,
			Runs:          bench.RunRecordsFrom(firstRunner),
		}
		for i, e := range exps {
			rec.Experiments = append(rec.Experiments, bench.ExperimentRecord{
				ID:          e.ID,
				TableDigest: bench.TableDigest(tables[i]),
				WallMS:      wallSamples[i],
			})
		}
		if sess.Metrics != nil {
			snap := sess.Metrics.Snapshot()
			rec.Metrics = &snap
		}
		if sess.Attrib != nil {
			rec.Attribution = sess.Attrib.Rows()
		}
	}
	if *savePath != "" {
		if err := bench.AppendRecord(*savePath, rec); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "# saved history record -> %s\n", *savePath)
	}

	regressed := false
	if *compare {
		cmp := bench.Compare(rec, baseRec, *threshold)
		regs := cmp.Regressions()
		regressed = len(regs) > 0
		if *jsonOut {
			jc := &jsonCompare{Baseline: *baseline, Threshold: *threshold, Regressions: regs}
			if jc.Regressions == nil {
				jc.Regressions = []string{}
			}
			for _, t := range cmp.Tables() {
				jc.Tables = append(jc.Tables, jsonTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes})
			}
			doc.Compare = jc
		} else {
			for _, t := range cmp.Tables() {
				fmt.Println(render(t))
			}
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "pythia-bench: regression: %s\n", r)
		}
	}

	if *jsonOut {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
	}

	if err := reportObs(sess, *hotsites, *attribution, *coverage); err != nil {
		fail(err)
	}
	if regressed {
		exit(1)
	}
	// A normal return keeps the -cpuprofile/-memprofile defers running.
	if err := outs.Close(); err != nil {
		fail(err)
	}
}

// reportObs renders the session's attribution, hot-site and coverage
// reports to stderr, so the table stream on stdout stays byte-identical
// with and without observability, and records the attribution rows as
// journal points before outs.Close writes the journal and the trace.
// It returns the first attribution reconciliation failure, a hard
// error (exit 1): it means cycles were dropped or double-counted
// between the VM and the report.
func reportObs(sess *obs.Session, hotsites, attribution int, coverage bool) error {
	var reconcileErr error
	if sess.Attrib != nil {
		rows := sess.Attrib.Rows()
		for i := range rows {
			r := &rows[i]
			if err := r.Reconcile(); err != nil && reconcileErr == nil {
				reconcileErr = err
			}
			if j := sess.Journal; j != nil {
				attrs := map[string]string{
					"profile":      r.Profile,
					"scheme":       r.Scheme,
					"overhead_pct": fmt.Sprintf("%.4f", r.OverheadPct),
					"delta_cycles": fmt.Sprintf("%.3f", r.Delta),
				}
				for cat, v := range r.Categories {
					attrs["cat."+cat] = fmt.Sprintf("%.3f", v)
				}
				j.Point("attribution "+r.Profile+" ["+r.Scheme+"]", "bench", attrs)
			}
		}
		if attribution > 0 {
			fmt.Fprint(os.Stderr, bench.AttributionTable(rows, attribution).Prefixed("# "))
			if reconcileErr == nil {
				fmt.Fprintf(os.Stderr, "# attribution: %d row(s), categories reconcile with overhead deltas within %g\n", len(rows), obs.ReconcileTol)
			}
		}
	}
	if hotsites > 0 {
		top := sess.Sites.Top(hotsites)
		fmt.Fprintf(os.Stderr, "# hot sites (top %d of %d by attributed cycles)\n", len(top), sess.Sites.Len())
		fmt.Fprintf(os.Stderr, "# %12s %14s  %-16s %-20s %s\n", "count", "cycles", "program", "function", "instr")
		for _, h := range top {
			fmt.Fprintf(os.Stderr, "# %12d %14.0f  %-16s @%-20s %s\n", h.Count, h.Cycles, h.Module, h.Func, h.Instr)
		}
	}
	if coverage {
		sess.Coverage.WriteReport(os.Stderr)
	}
	return reconcileErr
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
