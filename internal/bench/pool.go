package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Task is one unit of pre-warmable work: either a (profile, scheme)
// execution or the profile's vulnerability analysis.
type Task struct {
	Profile workload.Profile
	Scheme  core.Scheme
	Analyze bool
}

type taskKey struct {
	fp      string
	scheme  core.Scheme
	analyze bool
}

func (t Task) key() taskKey {
	return taskKey{t.Profile.Fingerprint(), t.Scheme, t.Analyze}
}

// WarmTasks collects the distinct tasks the given experiments declare
// over cfg, in declaration order.
func WarmTasks(cfg *Config, exps []Experiment) []Task {
	seen := make(map[taskKey]bool)
	var out []Task
	for _, e := range exps {
		if e.Warm == nil {
			continue
		}
		for _, t := range e.Warm(cfg) {
			if k := t.key(); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// forEach fans fn out over n items on up to `workers` goroutines and
// waits for all of them — the hand-rolled errgroup shape every stage of
// the prewarm pipeline uses. Failures are not collected here: each
// stage's outputs are memoized (pipeline entries, run cache), so errors
// stay cached and resurface from the owning experiment in the same
// deterministic order a cold sequential run would report them.
func forEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 0 {
		return
	}
	// Worker goroutines adopt the caller's journal span, so work fanned
	// out across the pool stays causally parented under the prewarm
	// stage that requested it rather than orphaned per goroutine.
	parent := obs.CurrentSpanID()
	var wg sync.WaitGroup
	// The channel is unbuffered, so each item's enqueue timestamp to
	// receipt measures how long it waited for a free worker — the pool
	// saturation signal behind the bench.pool.queue_wait.ms histogram.
	type item struct {
		i  int
		at time.Time
	}
	next := make(chan item)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer obs.AdoptSpan(parent)()
			for it := range next {
				obs.ObserveMS("bench.pool.queue_wait.ms", time.Since(it.at))
				fn(it.i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- item{i: i, at: time.Now()}
	}
	close(next)
	wg.Wait()
}

// Prewarm populates the run cache with every task the experiments
// declare, in four explicitly staged batches over a pool of
// cfg.Parallel workers (0 = GOMAXPROCS):
//
//  1. compile: every distinct profile front-end compile, once
//  2. analyze: every declared vulnerability analysis, each of which
//     also hands its compile the analysis its hardens read, and keeps
//     only its Census for the tables
//  3. harden:  every distinct (profile, scheme) instrumentation,
//     each decoded from stage 1's vanilla IR bytes
//  4. run:     every execution, all stages warm
//
// Each batch saturates the pool with the widest level of the build DAG,
// so no scheme's harden waits behind another profile's compile, and a
// profile's hardens find its declared analysis ready. Returns the
// worker count used.
func (c *Config) Prewarm(exps []Experiment) int {
	tasks := WarmTasks(c, exps)
	workers := c.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers == 0 {
		return 0
	}
	if reg := obs.CurrentMetrics(); reg != nil {
		reg.Gauge("bench.pool.workers").Set(float64(workers))
		reg.Gauge("bench.pool.tasks").Set(float64(len(tasks)))
	}
	defer obs.TraceSpan(fmt.Sprintf("prewarm %d tasks / %d workers", len(tasks), workers), "bench")()
	r := c.Runner()
	pl := r.Pipeline()

	// Stage 1: distinct compiles. Analyze-only tasks need the vanilla
	// compile too, so every distinct fingerprint appears exactly once.
	var compiles []workload.Profile
	seenFP := make(map[string]bool)
	for _, t := range tasks {
		if fp := t.Profile.Fingerprint(); !seenFP[fp] {
			seenFP[fp] = true
			compiles = append(compiles, t.Profile)
		}
	}
	func() {
		defer obs.TraceSpan(fmt.Sprintf("prewarm compile x%d", len(compiles)), "bench")()
		forEach(workers, len(compiles), func(i int) {
			p := compiles[i]
			pl.PrewarmCompile(p.Name, workload.Source(&p))
		})
	}()

	// Split the rest: WarmTasks already dropped duplicates.
	var analyses, runs []Task
	for _, t := range tasks {
		if t.Analyze {
			analyses = append(analyses, t)
		} else {
			runs = append(runs, t)
		}
	}

	// Stage 2: analyses, before any harden needs one.
	func() {
		defer obs.TraceSpan(fmt.Sprintf("prewarm analyze x%d", len(analyses)), "bench")()
		forEach(workers, len(analyses), func(i int) {
			r.Analyze(&analyses[i].Profile)
		})
	}()

	// Stage 3: hardens, one per distinct (profile, scheme) run.
	func() {
		defer obs.TraceSpan(fmt.Sprintf("prewarm harden x%d", len(runs)), "bench")()
		forEach(workers, len(runs), func(i int) {
			t := runs[i]
			pl.PrewarmHarden(t.Profile.Name, workload.Source(&t.Profile), t.Scheme)
		})
	}()

	// Stage 4: runs, every build stage now warm.
	func() {
		defer obs.TraceSpan(fmt.Sprintf("prewarm run x%d", len(runs)), "bench")()
		forEach(workers, len(runs), func(i int) {
			r.Run(&runs[i].Profile, runs[i].Scheme)
		})
	}()
	return workers
}
