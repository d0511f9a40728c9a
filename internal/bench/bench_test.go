package bench_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
		"attackdist", "nginx", "eqbounds", "bruteforce", "attacks", "ablation",
		"fieldcanary",
	}
	all := bench.All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" {
			t.Fatalf("%s has no title", id)
		}
	}
	if _, err := bench.ByID("fig4a"); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestEveryExperimentRunsQuick executes the full registry on the quick
// subset — the integration gate for the whole harness. The shared Config
// memoizes across experiments, as in the CLI.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick subset still takes seconds")
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	for _, e := range bench.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if tbl.ID != e.ID {
				t.Fatalf("table id %q", tbl.ID)
			}
			out := tbl.String()
			if !strings.Contains(out, e.ID) {
				t.Fatal("rendered table must carry its id")
			}
		})
	}
}

// TestOneAnalysisPerCompile runs Prewarm and every experiment on the
// quick config: every scheme's harden and every Analyze of one compile
// share its one vulnerability analysis, so no compile is analyzed twice.
func TestOneAnalysisPerCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("quick subset still takes seconds")
	}
	sess := obs.Start(&obs.Session{Journal: obs.NewJournal()})
	defer obs.Stop()
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	cfg.Parallel = 2
	sweep(t, cfg)
	analyses := make(map[string]int)
	for _, ev := range sess.Journal.Events() {
		if ev.Ev == "point" && ev.Name == "pipeline.analysis.misses" {
			analyses[ev.Attrs["name"]+" "+ev.Attrs["compile"]]++
		}
	}
	if len(analyses) == 0 {
		t.Fatal("no analysis recorded")
	}
	for compile, n := range analyses {
		if n != 1 {
			t.Errorf("%s analyzed %d times", compile, n)
		}
	}
}

// TestEmptyProfileSelectionErrors: Quick intersected with a profile list
// that lacks the three representatives used to emit NaN averages
// (division by zero rows); it must be a descriptive error instead.
func TestEmptyProfileSelectionErrors(t *testing.T) {
	custom := *workload.ProfileByName("505.mcf_r")
	for _, cfg := range []*bench.Config{
		{Quick: true}, // empty list
		{Profiles: []workload.Profile{custom}, Quick: true}, // non-intersecting
		{}, // explicit empty, no quick
	} {
		for _, id := range []string{"fig4a", "fig4b", "fig5a", "fig7b", "ablation"} {
			e, err := bench.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(cfg)
			if err == nil {
				t.Fatalf("%s over empty selection: want error, got table:\n%s", id, tbl)
			}
			if !strings.Contains(err.Error(), "no profiles selected") {
				t.Fatalf("%s: undescriptive error %q", id, err)
			}
		}
	}
}

// tinyProfile is a milliseconds-scale workload for cache tests.
func tinyProfile() workload.Profile {
	p := *workload.ProfileByName("519.lbm_r")
	p.Name = "tiny"
	p.HotRounds, p.OuterTrip, p.InnerTrip, p.MediumTrip = 2, 3, 4, 3
	return p
}

// TestRunnerSingleflight hammers one Runner from many goroutines (run
// under -race) and checks that each distinct (profile, scheme) pair and
// each analysis executed exactly once, with every caller handed the same
// memoized result.
func TestRunnerSingleflight(t *testing.T) {
	r := bench.NewRunner()
	p := tinyProfile()
	schemes := []core.Scheme{core.SchemeVanilla, core.SchemePythia}

	const goroutines = 16
	results := make([]*workload.RunResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pp := p // own copy per goroutine, same fingerprint
			for _, s := range schemes {
				res, err := r.Run(&pp, s)
				if err != nil {
					t.Error(err)
					return
				}
				if s == core.SchemePythia {
					results[i] = res
				}
			}
			if _, err := r.Analyze(&pp); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different RunResult pointer — cache not shared", i)
		}
	}
	st := r.Stats()
	if st.RunMisses != len(schemes) {
		t.Fatalf("RunMisses = %d, want %d (singleflight must dedupe)", st.RunMisses, len(schemes))
	}
	if st.AnalysisMisses != 1 {
		t.Fatalf("AnalysisMisses = %d, want 1", st.AnalysisMisses)
	}
	if st.RunHits != goroutines*len(schemes)-len(schemes) {
		t.Fatalf("RunHits = %d, want %d", st.RunHits, goroutines*len(schemes)-len(schemes))
	}
}

// TestRunnerCachesErrors: a failing execution is memoized too — every
// caller sees the same error without re-running the build.
func TestRunnerCachesErrors(t *testing.T) {
	r := bench.NewRunner()
	bad := tinyProfile()
	// An out-of-range scheme value fails in harden.Apply, giving a
	// deterministic error to memoize.
	if _, err := r.Run(&bad, core.Scheme(99)); err == nil {
		t.Skip("scheme 99 unexpectedly runnable")
	}
	st0 := r.Stats()
	if _, err := r.Run(&bad, core.Scheme(99)); err == nil {
		t.Fatal("second call must replay the memoized error")
	}
	st1 := r.Stats()
	if st1.RunMisses != st0.RunMisses || st1.RunHits != st0.RunHits+1 {
		t.Fatalf("error result not served from cache: %+v -> %+v", st0, st1)
	}
}

// TestSequentialVsParallelDeterminism is the repo's invariant #3 applied
// to the new harness: a cold sequential run (fresh Runner per
// experiment) and a pre-warmed parallel cached run must render
// byte-identical tables.
func TestSequentialVsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	render := func(parallel bool) string {
		var b strings.Builder
		if parallel {
			cfg := bench.DefaultConfig()
			cfg.Quick = true
			cfg.Parallel = 4
			cfg.Prewarm(bench.All())
			for _, e := range bench.All() {
				tbl, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				b.WriteString(tbl.String())
			}
			return b.String()
		}
		for _, e := range bench.All() {
			cfg := bench.DefaultConfig() // fresh cache every experiment
			cfg.Quick = true
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			b.WriteString(tbl.String())
		}
		return b.String()
	}
	seq := render(false)
	par := render(true)
	if seq != par {
		t.Fatal("sequential fresh and parallel cached outputs differ")
	}
}

// TestWarmDeclarationsComplete: after Prewarm, no experiment may trigger
// new cache misses — every (profile, scheme) pair and analysis an
// experiment needs must be declared by its Warm hook.
func TestWarmDeclarationsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("prewarms the quick suite")
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	cfg.Parallel = 2
	cfg.Prewarm(bench.All())
	warm := cfg.Runner().Stats()
	for _, e := range bench.All() {
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		st := cfg.Runner().Stats()
		if st.RunMisses != warm.RunMisses || st.AnalysisMisses != warm.AnalysisMisses {
			t.Fatalf("%s executed undeclared work: prewarm %+v, after %+v", e.ID, warm, st)
		}
	}
}

// TestWarmTasksDedupe: overlapping experiments (fig4a/4b/5a/6b share
// every pair) must collapse to one task each.
func TestWarmTasksDedupe(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	var sum int
	for _, e := range bench.All() {
		if e.Warm != nil {
			sum += len(e.Warm(cfg))
		}
	}
	tasks := bench.WarmTasks(cfg, bench.All())
	if len(tasks) == 0 {
		t.Fatal("no warm tasks declared")
	}
	if len(tasks) >= sum {
		t.Fatalf("WarmTasks did not dedupe: %d distinct vs %d declared", len(tasks), sum)
	}
	// 3 quick profiles x 6 distinct schemes (vanilla/cpa/pythia from the
	// overhead experiments + ablation's three variants), nginx's scaled
	// serving loops adding only the 10- and 120-round profiles x 3
	// schemes (the 40-round run IS the base nginx profile), and one
	// analysis per distinct profile (lbm, gcc, nginx).
	if want := 3*6 + 2*3 + 3; len(tasks) != want {
		t.Fatalf("%d distinct tasks, want %d", len(tasks), want)
	}
}
