package bench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// attribFixture is a two-cell aggregate with known numbers (the same
// shape obs/attrib_test.go hand-computes).
func attribFixture() *obs.AttribAgg {
	a := obs.NewAttribAgg()
	a.Record("p", "vanilla", "fp1", 100, 0, nil)
	a.Record("p", "pythia", "fp1", 130, 2, map[string]obs.SiteCount{
		"@main#0:canary.set": {Execs: 3, Cycles: 12},
		"@main#1:pac.sign":   {Execs: 2, Cycles: 8},
	})
	return a
}

func TestAttributionTableRendering(t *testing.T) {
	tbl := AttributionTable(attribFixture().Rows(), 1)
	out := tbl.String()
	for _, want := range []string{"pythia", "canary", "residual", "@main#0:canary.set", "... 1 more site(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "@main#1:pac.sign") {
		t.Errorf("topN=1 must elide the second site:\n%s", out)
	}
}

func TestAttribBlame(t *testing.T) {
	base := []obs.AttribRow{{
		Profile: "p", Scheme: "pythia", Fingerprint: "fp1",
		Categories: map[string]float64{harden.CategoryCanary: 10, harden.CategoryPA: 5},
		Sites:      []obs.SiteCostRow{{Site: "@main#0:canary.set", Cycles: 10}},
	}}
	cur := []obs.AttribRow{{
		Profile: "p", Scheme: "pythia", Fingerprint: "fp1",
		Categories: map[string]float64{harden.CategoryCanary: 25, harden.CategoryPA: 5},
		Sites: []obs.SiteCostRow{
			{Site: "@main#0:canary.set", Cycles: 22},
			{Site: "@main#2:canary.check", Cycles: 3},
		},
	}}
	blame := attribBlame(base, cur, "p", "pythia", "fp1", 3)
	for _, want := range []string{"canary +15.0", "@main#0:canary.set +12.0", "@main#2:canary.check +3.0"} {
		if !strings.Contains(blame, want) {
			t.Errorf("blame missing %q: %s", want, blame)
		}
	}
	if got := attribBlame(base, cur, "p", "pythia", "other-fp", 3); got != "" {
		t.Errorf("blame for unknown cell = %q, want empty", got)
	}
}

// TestCompareBlamesRegressions: a regressed verdict carries attribution
// blame when both records embed attribution for the cell, and the
// Regressions() strings surface it.
func TestCompareBlamesRegressions(t *testing.T) {
	base := sampleRecord()
	cur := sampleRecord()
	cur.Runs[0].Cycles *= 1.10 // 502.gcc_r/pythia regresses 10%
	base.Attribution = []obs.AttribRow{{
		Profile: "502.gcc_r", Scheme: "pythia",
		Categories: map[string]float64{harden.CategoryPA: 100},
		Sites:      []obs.SiteCostRow{{Site: "@f#0:pac.sign", Cycles: 100}},
	}}
	cur.Attribution = []obs.AttribRow{{
		Profile: "502.gcc_r", Scheme: "pythia",
		Categories: map[string]float64{harden.CategoryPA: 350},
		Sites:      []obs.SiteCostRow{{Site: "@f#0:pac.sign", Cycles: 350}},
	}}
	cmp := Compare(cur, base, 1)
	regs := cmp.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions: %v", regs)
	}
	if !strings.Contains(regs[0], "blame:") || !strings.Contains(regs[0], "pa +250.0") {
		t.Errorf("regression line lacks blame: %s", regs[0])
	}
	found := false
	for _, n := range cmp.Tables()[0].Notes {
		if strings.Contains(n, "blame:") {
			found = true
		}
	}
	if !found {
		t.Error("modeled table notes lack the blame line")
	}
}

// TestAttributionConcurrentMachines runs the same (profile, scheme)
// program on several machines at once with the site profiler and the
// attribution engine armed — the serve-mode interleaving — and checks
// (under -race in CI) that concurrent folds into the shared SiteProf
// with identical keys stay consistent and the attribution reconciles.
func TestAttributionConcurrentMachines(t *testing.T) {
	sess := obs.Start(&obs.Session{
		Attrib: obs.NewAttribAgg(),
		Sites:  perf.NewSiteProf(),
	})
	defer obs.Stop()

	var prof *workload.Profile
	for _, p := range workload.Profiles() {
		if p.Name == "519.lbm_r" {
			q := p
			prof = &q
			break
		}
	}
	if prof == nil {
		t.Fatal("no 519.lbm_r profile")
	}

	const machines = 4
	pl := core.NewPipeline()
	var wg sync.WaitGroup
	errs := make([]error, 2*machines)
	for i := 0; i < machines; i++ {
		for j, scheme := range []core.Scheme{core.SchemeVanilla, core.SchemePythia} {
			wg.Add(1)
			go func(slot int, s core.Scheme) {
				defer wg.Done()
				_, errs[slot] = workload.RunWith(pl, prof, s)
			}(2*i+j, scheme)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if sess.Sites.Len() == 0 {
		t.Fatal("site profiler saw no sites")
	}
	rows := sess.Attrib.Rows()
	if len(rows) != 1 {
		t.Fatalf("attribution rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Runs != machines || r.Scheme != "pythia" {
		t.Fatalf("row: %+v", r)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatalf("concurrent attribution does not reconcile: %v", err)
	}
	if r.Delta <= 0 || len(r.Sites) == 0 {
		t.Fatalf("hardened run should cost cycles at sites: %+v", r)
	}
	for _, s := range r.Sites {
		if !strings.HasPrefix(s.Site, "@") {
			t.Errorf("unstable site id %q", s.Site)
		}
	}
}
