package bench

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slice"
	"repro/internal/workload"
)

// runKey identifies one memoized workload execution: the profile's
// generator fingerprint plus the defense scheme it ran under.
type runKey struct {
	fp     string
	scheme core.Scheme
}

type runEntry struct {
	once sync.Once
	res  *workload.RunResult
	err  error
}

type analysisEntry struct {
	once sync.Once
	vr   *slice.VulnReport
	err  error
}

// Runner hands experiments their measurements through a concurrency-safe
// memoized cache. Every (profile fingerprint, scheme) pair is built and
// executed at most once per Runner — concurrent requests for the same
// pair coalesce onto a single in-flight execution (singleflight), and
// later callers get the cached result, error included. The vulnerability
// analysis (vanilla build + slicing) is memoized the same way, keyed by
// fingerprint alone.
//
// Every build flows through the Runner's core.Pipeline, so the compile
// and harden stages are additionally shared across schemes (and across
// processes when the pipeline is disk-backed).
//
// Determinism invariant (#3 in the README): every build and run is
// seed-fixed and isolated, so the cache only removes repetition — a
// cached result is bit-identical to what a fresh execution would return.
type Runner struct {
	mu       sync.Mutex
	runs     map[runKey]*runEntry
	analyses map[string]*analysisEntry
	stats    Stats
	pipeline *core.Pipeline

	// done holds every successfully completed run, recorded under mu
	// after its once fires; Results reads it without touching the
	// entries' once state, so it is safe alongside in-flight runs.
	done map[runKey]*workload.RunResult
}

// Stats counts cache traffic; misses are the executions actually paid.
type Stats struct {
	RunHits, RunMisses           int
	AnalysisHits, AnalysisMisses int
}

// NewRunner returns an empty cache over a fresh in-process pipeline.
// Each Runner gets its own pipeline so a -repeat loop's fresh Configs
// stay honestly cold rather than silently sharing the process default.
func NewRunner() *Runner { return NewRunnerWith(core.NewPipeline()) }

// NewRunnerWith returns an empty cache whose builds flow through pl —
// the way a -cache-dir-backed pipeline reaches the experiments.
func NewRunnerWith(pl *core.Pipeline) *Runner {
	return &Runner{
		runs:     make(map[runKey]*runEntry),
		analyses: make(map[string]*analysisEntry),
		done:     make(map[runKey]*workload.RunResult),
		pipeline: pl,
	}
}

// Pipeline returns the pipeline this Runner builds through.
func (r *Runner) Pipeline() *core.Pipeline { return r.pipeline }

// Stats returns a snapshot of the hit/miss counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Run builds and executes p under scheme, memoized.
func (r *Runner) Run(p *workload.Profile, scheme core.Scheme) (*workload.RunResult, error) {
	k := runKey{p.Fingerprint(), scheme}
	r.mu.Lock()
	e, ok := r.runs[k]
	if ok {
		r.stats.RunHits++
	} else {
		e = &runEntry{}
		r.runs[k] = e
		r.stats.RunMisses++
	}
	r.mu.Unlock()
	if ok {
		obs.Count("bench.cache.run.hits")
	} else {
		obs.Count("bench.cache.run.misses")
	}
	pp := *p // detach from the caller so later mutation can't race the build
	e.once.Do(func() { e.res, e.err = workload.RunWith(r.pipeline, &pp, scheme) })
	if e.err == nil && e.res != nil {
		r.mu.Lock()
		r.done[k] = e.res
		r.mu.Unlock()
	}
	return e.res, e.err
}

// Results returns every run the cache has completed so far, one per
// (profile fingerprint, scheme) pair, in unspecified order. The bench
// history layer snapshots this after an evaluation sweep to record the
// modeled (deterministic) metrics of each run.
func (r *Runner) Results() []*workload.RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*workload.RunResult, 0, len(r.done))
	for _, res := range r.done {
		out = append(out, res)
	}
	return out
}

// Schemes returns runs of p under vanilla plus each requested scheme,
// keyed by scheme — the shape every overhead experiment consumes.
func (r *Runner) Schemes(p *workload.Profile, schemes ...core.Scheme) (map[core.Scheme]*workload.RunResult, error) {
	out := make(map[core.Scheme]*workload.RunResult, len(schemes)+1)
	for _, s := range append([]core.Scheme{core.SchemeVanilla}, schemes...) {
		res, err := r.Run(p, s)
		if err != nil {
			return nil, err
		}
		out[s] = res
	}
	return out, nil
}

// Analyze compiles p's vanilla module and runs the vulnerability
// analysis, memoized by profile fingerprint.
func (r *Runner) Analyze(p *workload.Profile) (*slice.VulnReport, error) {
	fp := p.Fingerprint()
	r.mu.Lock()
	e, ok := r.analyses[fp]
	if ok {
		r.stats.AnalysisHits++
	} else {
		e = &analysisEntry{}
		r.analyses[fp] = e
		r.stats.AnalysisMisses++
	}
	r.mu.Unlock()
	if ok {
		obs.Count("bench.cache.analysis.hits")
	} else {
		obs.Count("bench.cache.analysis.misses")
	}
	pp := *p
	e.once.Do(func() {
		prog, err := workload.BuildWith(r.pipeline, &pp, core.SchemeVanilla)
		if err != nil {
			e.err = err
			return
		}
		e.vr = core.Analyze(prog.Mod)
	})
	return e.vr, e.err
}
