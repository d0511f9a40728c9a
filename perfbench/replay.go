package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/alias"
	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/slice"
	"repro/internal/vm"
)

// op is one unit of replayed work: a program compiled once, then
// hardened, built and run under each of its schemes.
type op struct {
	name, src, stdin string
	schemes          []core.Scheme
	expect           []string // verdict per scheme
	// miss: the workload compiles and hardens this program (the sweep,
	// serve-cold); otherwise every build is an in-memory hit.
	miss bool
	// diskHit: an earlier process stored this program's artifacts, so
	// the miss path reads them instead of compiling and hardening.
	diskHit bool
	// analyze: the workload also runs the vulnerability analysis on its
	// own, as the sweep's analysis figures do.
	analyze bool
}

// replayer replays ops through the layers' public functions, mirroring
// the stages core.Pipeline runs, with a span around every layer call.
type replayer struct {
	vmcfg vm.Config
	store *artifact.Store // nil: the workload has no artifact store
	// pipeline returns the pipeline core.build goes through for an op:
	// the serving engine's warm one for hot traffic, a fresh one
	// otherwise.
	pipeline func() *core.Pipeline

	// Exact counts, accumulated by traced replays only.
	srcBytes, instrsOut, vulnRoots, sites int
	stageLookups, stageHits               int
	diskHits                              int // compile stages served by the store
	vmInstrs                              int64
	moduleKB, pages, allocs               []float64
	hardenSelf                            time.Duration
	failures                              []string
}

func storeKey(stage, name, src, scheme string) string {
	return artifact.Key("perfbench-replay", stage, name, src, scheme)
}

// replay runs o once under t; with t off it does the same calls without
// spans or counts. It returns the op's wall time.
func (rp *replayer) replay(t *tracer, req int, o op) (time.Duration, error) {
	start := time.Now()
	root := t.begin("op", -1, req)
	defer t.end(root)

	var vanilla *ir.Module // the compiled module hardening starts from
	if o.miss {
		var err error
		if vanilla, err = rp.compile(t, root, req, o); err != nil {
			return 0, err
		}
		if !o.diskHit {
			rp.analyze(t, root, req, vanilla, o.analyze)
		}
	}
	pl := rp.pipeline()
	for i, s := range o.schemes {
		if o.miss {
			if err := rp.harden(t, root, req, o, vanilla, s); err != nil {
				return 0, err
			}
		}
		prog, err := rp.build(t, root, req, pl, o, s)
		if err != nil {
			return 0, err
		}
		if err := rp.run(t, root, req, prog, o, o.expect[i]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// compile mirrors the compile stage: front end and optimizer, encode,
// store, and the decode the pipeline hands downstream; or, for a disk
// hit, a store read and decode.
func (rp *replayer) compile(t *tracer, root, req int, o op) (*ir.Module, error) {
	stage := t.begin("compile", root, req)
	defer t.end(stage)
	key := storeKey("compile", o.name, o.src, "")
	var enc []byte
	if o.diskHit && rp.store != nil {
		var ok bool
		t.in("artifact.get", stage, req, func() { enc, ok = rp.store.Get(key) })
		if t.on && ok {
			rp.diskHits++
		}
		if !ok {
			return nil, fmt.Errorf("replay %s: pre-stored compile artifact missing", o.name)
		}
	} else {
		var mod *ir.Module
		var err error
		t.in("minic", stage, req, func() { mod, err = minic.Compile(o.name, o.src) })
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", o.name, err)
		}
		t.in("irpass", stage, req, func() { irpass.Optimize(mod) })
		if t.on {
			rp.srcBytes += len(o.src)
			rp.instrsOut += mod.NumInstrs()
		}
		t.in("ir.encode", stage, req, func() { enc, err = ir.EncodeModule(mod) })
		if err != nil {
			return nil, err
		}
		if rp.store != nil {
			t.in("artifact.put", stage, req, func() { err = rp.store.Put(key, enc) })
			if err != nil {
				return nil, err
			}
		}
	}
	var mod *ir.Module
	var err error
	t.in("ir.decode", stage, req, func() { mod, err = ir.DecodeModule(enc) })
	return mod, err
}

// analyze times the alias analysis on a copy of the compiled module
// and, when the workload runs it on its own, the vulnerability analysis.
func (rp *replayer) analyze(t *tracer, root, req int, vanilla *ir.Module, vuln bool) {
	stage := t.begin("analysis", root, req)
	defer t.end(stage)
	var mod *ir.Module
	t.in("ir.clone", stage, req, func() { mod = vanilla.Clone() })
	t.in("alias", stage, req, func() { alias.Analyze(mod) })
	if vuln {
		rp.slice(t, stage, req, vanilla)
	}
}

// slice times the vulnerability analysis on a copy of mod.
func (rp *replayer) slice(t *tracer, parent, req int, mod *ir.Module) time.Duration {
	var c *ir.Module
	t.in("ir.clone", parent, req, func() { c = mod.Clone() })
	var vr *slice.VulnReport
	start := time.Now()
	t.in("slice", parent, req, func() { vr = slice.AnalyzeVulnerabilities(c) })
	d := time.Since(start)
	if t.on {
		rp.vulnRoots += len(vr.PythiaVars)
	}
	return d
}

// harden mirrors the harden stage for one scheme: clone, protect,
// encode, store; or, for a disk hit, a store read.
//
// harden.Apply runs the vulnerability analysis internally, so the stage
// first times that analysis on another copy of the same module: the
// harden pass's own time is its duration minus that.
func (rp *replayer) harden(t *tracer, root, req int, o op, vanilla *ir.Module, s core.Scheme) error {
	stage := t.begin("harden.stage", root, req)
	defer t.end(stage)
	key := storeKey("harden", o.name, o.src, s.String())
	if o.diskHit && rp.store != nil {
		var ok bool
		t.in("artifact.get", stage, req, func() { _, ok = rp.store.Get(key) })
		if !ok {
			return fmt.Errorf("replay %s [%v]: pre-stored harden artifact missing", o.name, s)
		}
		return nil
	}
	var sliceDur time.Duration
	if s != harden.DFIScheme { // DFI does not run the vulnerability analysis
		sliceDur = rp.slice(t, stage, req, vanilla)
	}
	var mod *ir.Module
	t.in("ir.clone", stage, req, func() { mod = vanilla.Clone() })
	var prot *core.Protection
	var err error
	start := time.Now()
	t.in("harden", stage, req, func() { prot, err = core.Protect(mod, s) })
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("replay %s [%v]: %w", o.name, s, err)
	}
	if t.on {
		rp.sites += prot.PAInstrs()
		rp.hardenSelf += d - sliceDur
	}
	var enc []byte
	t.in("ir.encode", stage, req, func() { enc, err = ir.EncodeModule(mod) })
	if err != nil {
		return err
	}
	if rp.store != nil {
		t.in("artifact.put", stage, req, func() { err = rp.store.Put(key, enc) })
	}
	return err
}

// build calls Pipeline.Build and counts its in-process stage hits from
// the pipeline's memo sizes (two stage lookups per build).
func (rp *replayer) build(t *tracer, root, req int, pl *core.Pipeline, o op, s core.Scheme) (*core.Program, error) {
	before := pl.Stats()
	start := time.Now()
	prog, err := pl.Build(programName(o.src), o.src, s)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	after := pl.Stats()
	misses := (after.Compiles - before.Compiles) + (after.Hardens - before.Hardens)
	name := "core.build_miss"
	if misses == 0 {
		name = "core.build_hit"
	}
	t.record(name, root, req, start, end)
	if t.on {
		rp.stageLookups += 2
		rp.stageHits += 2 - misses
	}
	return prog, nil
}

// run re-times the module decode every build performs, then loads and
// runs the program and checks its verdict.
func (rp *replayer) run(t *tracer, root, req int, prog *core.Program, o op, expect string) error {
	stage := t.begin("run", root, req)
	defer t.end(stage)
	var enc []byte
	var err error
	t.in("ir.encode", stage, req, func() { enc, err = ir.EncodeModule(prog.Mod) })
	if err != nil {
		return err
	}
	var mod *ir.Module
	t.in("ir.decode", stage, req, func() { mod, err = ir.DecodeModule(enc) })
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	if t.on {
		runtime.ReadMemStats(&before)
	}
	var m *vm.Machine
	var res *vm.Result
	t.in("vm.run", stage, req, func() {
		m = vm.New(mod, rp.vmcfg)
		m.Stdin.SetInput([]byte(o.stdin))
		res, err = m.Run("main")
	})
	if err != nil {
		return fmt.Errorf("replay %s: %w", o.name, err)
	}
	if t.on {
		runtime.ReadMemStats(&after)
		rp.allocs = append(rp.allocs, float64(after.Mallocs-before.Mallocs))
		rp.vmInstrs += res.Counters.Instrs
		rp.pages = append(rp.pages, float64(m.Mem.Footprint()))
		rp.moduleKB = append(rp.moduleKB, float64(len(enc))/1024)
		kind := ""
		if res.Fault != nil {
			kind = res.Fault.Kind.String()
		}
		if got := verdict(attack.Classify(res).String(), kind); got != expect {
			rp.failures = append(rp.failures, fmt.Sprintf("replay %s [%v]: verdict %s, want %s", o.name, prog.Protection.Scheme, got, expect))
		}
	}
	return nil
}

// verdict renders a run's outcome the way the attacks table does: a
// detection names the kind of fault that detected it.
func verdict(v, faultKind string) string {
	if v == "detected" && faultKind != "" {
		return v + "(" + faultKind + ")"
	}
	return v
}

// layerMetrics reports the per-layer metrics from a traced replay.
func layerMetrics(rep *report, t *tracer, rp *replayer) {
	busy := func(name string) (float64, int) {
		d, n := t.busy(name)
		return d.Seconds(), n
	}
	minicS, minicN := busy("minic")
	rep.set("minic.calls", "count", float64(minicN), minicN)
	rep.set("minic.busy_s", "s", minicS, minicN)
	rep.set("minic.kb_per_s", "KB/s", frac(float64(rp.srcBytes)/1024, minicS), minicN)
	irpassS, irpassN := busy("irpass")
	rep.set("irpass.busy_s", "s", irpassS, irpassN)
	rep.set("irpass.instrs_out", "count", float64(rp.instrsOut), irpassN)
	aliasS, aliasN := busy("alias")
	rep.set("alias.busy_s", "s", aliasS, aliasN)
	sliceS, sliceN := busy("slice")
	rep.set("slice.calls", "count", float64(sliceN), sliceN)
	rep.set("slice.busy_s", "s", sliceS, sliceN)
	rep.set("slice.vuln_roots", "count", float64(rp.vulnRoots), sliceN)
	hardenS, hardenN := busy("harden")
	rep.set("harden.busy_s", "s", hardenS, hardenN)
	rep.set("harden.self_s", "s", rp.hardenSelf.Seconds(), hardenN)
	rep.set("harden.sites", "count", float64(rp.sites), hardenN)
	decS, decN := busy("ir.decode")
	rep.set("ir.decode_calls", "count", float64(decN), decN)
	rep.set("ir.decode_busy_s", "s", decS, decN)
	encS, encN := busy("ir.encode")
	rep.set("ir.encode_busy_s", "s", encS, encN)
	cloneS, cloneN := busy("ir.clone")
	rep.set("ir.clone_busy_s", "s", cloneS, cloneN)
	rep.set("ir.module_kb", "KB", mean(rp.moduleKB), len(rp.moduleKB))
	gets, puts := t.durationsMS("artifact.get"), t.durationsMS("artifact.put")
	rep.set("artifact.get_ms", "ms", median(gets), len(gets))
	rep.set("artifact.put_ms", "ms", median(puts), len(puts))
	missOps := len(t.named("compile"))
	rep.set("artifact.hit_frac", "ratio", frac(float64(rp.diskHits), float64(missOps)), missOps)
	hits, misses := t.durationsMS("core.build_hit"), t.durationsMS("core.build_miss")
	rep.set("core.build_hit_ms", "ms", median(hits), len(hits))
	rep.set("core.build_miss_ms", "ms", median(misses), len(misses))
	rep.set("core.memo_hit_frac", "ratio", frac(float64(rp.stageHits), float64(rp.stageLookups)), rp.stageLookups)
	vmS, vmN := busy("vm.run")
	rep.set("vm.run_calls", "count", float64(vmN), vmN)
	rep.set("vm.run_busy_s", "s", vmS, vmN)
	rep.set("vm.mips", "Minstr/s", frac(float64(rp.vmInstrs)/1e6, vmS), vmN)
	rep.set("vm.allocs_per_run", "count", mean(rp.allocs), len(rp.allocs))
	rep.set("mem.pages_per_run", "count", mean(rp.pages), len(rp.pages))
	rep.set("trace.covered_frac", "ratio", coveredFrac(t.spans), len(t.named("op")))
	for _, f := range rp.failures {
		rep.fail("%s", f)
	}
}

// replayAll replays every op once untraced and once traced, alternating
// which goes first, and reports the tracing overhead.
func replayAll(rep *report, t *tracer, rp *replayer, ops []op) error {
	off := newTracer(false)
	var plain, traced time.Duration
	for i, o := range ops {
		rep.attempted++
		for pass := 0; pass < 2; pass++ {
			on := (i+pass)%2 == 1
			tt := off
			if on {
				tt = t
			}
			d, err := rp.replay(tt, i, o)
			if err != nil {
				return err
			}
			if on {
				traced += d
			} else {
				plain += d
			}
		}
	}
	rep.set("trace.overhead_pct", "%", 100*frac(float64(traced-plain), float64(plain)), len(ops))
	layerMetrics(rep, t, rp)
	return checkNesting(t.spans)
}
