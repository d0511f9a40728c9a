package workload

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm"
)

// RunResult bundles one benchmark execution's measurements.
type RunResult struct {
	Profile    *Profile
	Scheme     core.Scheme
	Counters   *perf.Counters
	BinarySize int64
	Protection *core.Protection
	Ret        uint64
	Fault      *vm.Fault
	Stdout     int // bytes of program output (sanity signal)

	// StaticSites / ExecutedSites: hardening instructions inserted vs
	// those that ran at least once (the Fig. 6b dynamic-share metric).
	StaticSites   int
	ExecutedSites int
}

// Overhead returns this run's cycle overhead relative to base, percent.
// A degenerate baseline (zero, negative, or non-finite cycles) is an
// error: it means the baseline run itself is broken, and reporting 0%
// would hide that.
func (r *RunResult) Overhead(base *RunResult) (float64, error) {
	ov, err := perf.Overhead(base.Counters.Cycles, r.Counters.Cycles)
	if err != nil {
		return 0, fmt.Errorf("workload %s [%v vs %v]: %w", r.Profile.Name, r.Scheme, base.Scheme, err)
	}
	return ov, nil
}

// The generate stage is pure in the profile's knobs, so its output is
// memoized process-wide by fingerprint. Generation is cheap next to
// compilation, but the same profile is generated for every scheme and
// every repeat; caching it makes the fingerprint the single source of
// truth for "same program".
var (
	genMu    sync.Mutex
	genCache = make(map[string]string)
)

// Source returns the profile's generated program, memoized by
// fingerprint.
func Source(p *Profile) string {
	fp := p.Fingerprint()
	genMu.Lock()
	src, ok := genCache[fp]
	genMu.Unlock()
	if ok {
		obs.Count("pipeline.generate.hits")
		return src
	}
	obs.Count("pipeline.generate.misses")
	src = Generate(p)
	genMu.Lock()
	genCache[fp] = src
	genMu.Unlock()
	return src
}

// Build generates, compiles, and protects the profile's program through
// the process-wide pipeline.
func Build(p *Profile, scheme core.Scheme) (*core.Program, error) {
	return BuildWith(core.DefaultPipeline(), p, scheme)
}

// BuildWith is Build through an explicit pipeline — used by the bench
// runner so each Config gets its own (optionally disk-backed) caches.
func BuildWith(pl *core.Pipeline, p *Profile, scheme core.Scheme) (*core.Program, error) {
	prog, err := pl.Build(p.Name, Source(p), scheme)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return prog, nil
}

// Run builds and executes the profile under the scheme with its benign
// input, returning the measurements.
func Run(p *Profile, scheme core.Scheme) (*RunResult, error) {
	return RunWith(core.DefaultPipeline(), p, scheme)
}

// RunWith is Run through an explicit pipeline. A fault is a harness
// bug: the generated programs must run clean under every scheme.
func RunWith(pl *core.Pipeline, p *Profile, scheme core.Scheme) (*RunResult, error) {
	defer obs.TraceSpan(fmt.Sprintf("workload %s [%v]", p.Name, scheme), "bench")()
	prog, err := BuildWith(pl, p, scheme)
	if err != nil {
		return nil, err
	}
	res, err := prog.Run(Stdin(p))
	if err != nil {
		return nil, err
	}
	if res.Fault != nil {
		return nil, fmt.Errorf("workload %s under %v faulted: %v", p.Name, scheme, res.Fault)
	}
	siteIDs := harden.SiteIDs(prog.Mod)
	// Defense-coverage telemetry: fold this run's static site inventory
	// and the VM's per-site tally into the session aggregate (no-op
	// unless -coverage armed one).
	obs.CurrentCoverage().Record(p.Name, scheme.String(), siteIDs, prog.Mod.NumInstrs(), res.Sites)
	// Overhead attribution: fold this run's total cycles, bookkeeping
	// cycles, and per-site attributed cycles into the session aggregate
	// (no-op unless -attribution armed one). Vanilla runs contribute the
	// baseline the hardened cells diff against.
	obs.CurrentAttrib().Record(p.Name, scheme.String(), p.Fingerprint(),
		res.Counters.Cycles, res.Counters.BookkeepCycles, res.Sites)
	return &RunResult{
		Profile:       p,
		Scheme:        scheme,
		Counters:      res.Counters,
		BinarySize:    core.BinarySize(prog.Mod),
		Protection:    prog.Protection,
		Ret:           res.Ret,
		Fault:         res.Fault,
		Stdout:        len(res.Stdout),
		StaticSites:   len(siteIDs),
		ExecutedSites: res.SitesExecuted,
	}, nil
}
