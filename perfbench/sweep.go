package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workload"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// sweepConfig is what pythia-bench builds per sweep: the 16 fixed
// profiles over a fresh in-memory pipeline, prewarmed by two workers.
func sweepConfig(quick bool) *bench.Config {
	return &bench.Config{Profiles: workload.Profiles(), Quick: quick, Parallel: procs, Pipeline: core.NewPipeline()}
}

// sweep runs every experiment the way pythia-bench does and compares
// each table with its expected section. It returns the rendered tables.
func sweep(rep *report, cfg *bench.Config, want map[string]string, t *tracer, req int) map[string]string {
	root := t.begin("sweep", -1, req)
	defer t.end(root)
	exps := bench.All()
	t.in("bench.prewarm", root, req, func() { cfg.Prewarm(exps) })
	tables := t.begin("bench.tables", root, req)
	defer t.end(tables)
	got := map[string]string{}
	for _, e := range exps {
		rep.attempted++
		id := t.begin("bench.table", tables, req)
		tbl, err := e.Run(cfg)
		t.end(id)
		switch {
		case err != nil:
			rep.fail("%s: %v", e.ID, err)
		case tbl.String() != want[e.ID]:
			rep.fail("%s: table differs from its expected section", e.ID)
		default:
			got[e.ID] = tbl.String()
		}
	}
	return got
}

// sweepSetup generates every profile's program and runs the quick sweep
// against its expected tables, so that sources, the heap and the page
// cache are warm before the first timed sweep.
func sweepSetup(rep *report) {
	for _, p := range workload.Profiles() {
		p := p
		workload.Source(&p)
	}
	sweep(rep, sweepConfig(true), sections(quickGolden), newTracer(false), 0)
}

func runSweep(rep *report, _ int64, seconds int) error {
	var setups samples
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		sweepSetup(rep)
		setups.add(time.Since(start))
	}
	want := sections(fullGolden)
	var walls samples
	var first *modeled
	window := time.Duration(seconds) * time.Second
	for start := time.Now(); len(walls) == 0 || time.Since(start) < window; {
		t0 := time.Now()
		tables := sweep(rep, sweepConfig(false), want, newTracer(false), 0)
		walls.add(time.Since(t0))
		m, err := parseModeled(tables["fig4a"], tables["fig4b"])
		switch {
		case err != nil:
			rep.fail("modeled metrics: %v", err)
		case first == nil:
			first = &m
		case m != *first:
			rep.fail("modeled metrics changed between sweeps: %+v then %+v", *first, m)
		}
	}
	rep.set("setup_s", "s", median(setups)/1e3, len(setups))
	rep.set("p50_ms", "ms", median(walls), len(walls))
	rep.set("mean_ms", "ms", mean(walls), len(walls))
	rep.set("sweep_s", "s", median(walls)/1e3, len(walls))
	if first != nil {
		rep.set("pythia_overhead_pct", "%", first.PythiaOverheadPct, len(walls))
		rep.set("cpa_overhead_pct", "%", first.CPAOverheadPct, len(walls))
		rep.set("pythia_size_pct", "%", first.PythiaSizePct, len(walls))
	}
	return nil
}

// sweepSchemes are the schemes the sweep builds and runs every profile
// under: the overhead figures' three and the ablation's variants.
var sweepSchemes = []core.Scheme{core.SchemeVanilla, core.SchemeCPA, core.SchemePythia,
	core.SchemeStackOnly, core.SchemeHeapOnly, core.SchemeNoRelayout}

// traceSweep runs one traced sweep for the harness layer, then replays
// every profile through the layers: compile once, analyze, and harden,
// build and run under each sweep scheme.
func traceSweep(rep *report, seed int64, _ int) error {
	sweepSetup(rep)
	t := newTracer(true)
	cfg := sweepConfig(false)
	sweep(rep, cfg, sections(fullGolden), t, -1)
	prewarm, _ := t.busy("bench.prewarm")
	tables, _ := t.busy("bench.tables")
	st := cfg.Runner().Stats()
	rep.set("bench.prewarm_s", "s", prewarm.Seconds(), 1)
	rep.set("bench.tables_s", "s", tables.Seconds(), 1)
	rep.set("bench.run_hit_frac", "ratio", frac(float64(st.RunHits), float64(st.RunHits+st.RunMisses)), st.RunHits+st.RunMisses)

	var ops []op
	for _, p := range workload.Profiles() {
		p := p
		expect := make([]string, len(sweepSchemes))
		for i := range expect {
			expect[i] = "clean"
		}
		ops = append(ops, op{name: p.Name, src: workload.Source(&p), stdin: workload.Stdin(&p),
			schemes: sweepSchemes, expect: expect, miss: true, analyze: true})
	}
	rp := &replayer{vmcfg: vm.Config{Seed: 42}, pipeline: core.NewPipeline}
	if err := replayAll(rep, t, rp, ops); err != nil {
		return err
	}
	for _, name := range []string{"service.queue_wait_tail_ms", "service.rejected", "service.http_overhead_ms",
		"loadgen.late_tail_ms", "loadgen.conn_wait_ms"} {
		rep.set(name, perLayer[name], 0, 0)
	}
	return writeSpans(t, "sweep", seed)
}

// writeSpans stores a traced run's spans under .bench_build.
func writeSpans(t *tracer, workloadName string, seed int64) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", workloadName, seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d -> %s\n", len(t.spans), path)
	return nil
}

// buildDir holds everything a run writes, relative to the checkout.
const buildDir = ".bench_build"
