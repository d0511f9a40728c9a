package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harden"
)

// TestAttribRowsHandComputed pins the decomposition arithmetic on a
// hand-computed two-site fixture:
//
//	vanilla: 100 cycles, no bookkeeping
//	pythia:  130 cycles, 2 bookkeeping, canary site 12 cyc, pa site 8 cyc
//
// delta = 30; canary = 12, pa = 8, meta = 2 (bookkeeping growth),
// residual = 30 - 22 = 8 (cache/branch effects nobody owns).
func TestAttribRowsHandComputed(t *testing.T) {
	a := NewAttribAgg()
	a.Record("p", "vanilla", "fp1", 100, 0, nil)
	a.Record("p", "pythia", "fp1", 130, 2, map[string]SiteCount{
		"@main#0:canary.set": {Execs: 3, Cycles: 12},
		"@main#1:pac.sign":   {Execs: 2, Cycles: 8},
	})

	rows := a.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Profile != "p" || r.Scheme != "pythia" || r.Runs != 1 {
		t.Fatalf("row identity: %+v", r)
	}
	if r.BaseCycles != 100 || r.Cycles != 130 || r.Delta != 30 {
		t.Fatalf("cycle accounting: %+v", r)
	}
	if absf(r.OverheadPct-30) > 1e-9 {
		t.Fatalf("OverheadPct = %g, want 30", r.OverheadPct)
	}
	want := map[string]float64{
		harden.CategoryCanary:   12,
		harden.CategoryPA:       8,
		harden.CategoryMeta:     2,
		harden.CategoryDFI:      0,
		harden.CategoryResidual: 8,
	}
	for cat, w := range want {
		if got := r.Categories[cat]; got != w {
			t.Errorf("category %s = %g, want %g", cat, got, w)
		}
	}
	if err := r.Reconcile(); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
	// Sites sorted costliest first.
	if len(r.Sites) != 2 || r.Sites[0].Site != "@main#0:canary.set" || r.Sites[1].Cycles != 8 {
		t.Errorf("sites: %+v", r.Sites)
	}
}

// TestAttribRowsAveragesRepeats: sums across repeats divided by the run
// count recover the exact per-run values (modeled metrics are
// deterministic, so repeats are identical).
func TestAttribRowsAveragesRepeats(t *testing.T) {
	a := NewAttribAgg()
	for i := 0; i < 3; i++ {
		a.Record("p", "vanilla", "fp1", 100, 0, nil)
		a.Record("p", "cpa", "fp1", 120, 0, map[string]SiteCount{
			"@main#0:pac.sign": {Execs: 5, Cycles: 15},
		})
	}
	rows := a.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Runs != 3 || r.BaseCycles != 100 || r.Cycles != 120 || r.Delta != 20 {
		t.Fatalf("per-run recovery failed: %+v", r)
	}
	if r.Categories[harden.CategoryPA] != 15 || r.Sites[0].Count != 5 {
		t.Fatalf("per-run site recovery failed: %+v", r)
	}
	if err := r.Reconcile(); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
}

// TestAttribRowsNeedsBaseline: hardened cells with no vanilla run of
// the same (profile, fingerprint) cannot be attributed and are skipped;
// a different fingerprint is a different program.
func TestAttribRowsNeedsBaseline(t *testing.T) {
	a := NewAttribAgg()
	a.Record("p", "pythia", "fp1", 130, 0, nil)
	a.Record("p", "vanilla", "fp-other", 90, 0, nil)
	if rows := a.Rows(); len(rows) != 0 {
		t.Fatalf("expected no attributable rows, got %+v", rows)
	}
}

// TestAttribReconcileCatchesCorruption: a dropped category fails the
// accounting identity with a diagnostic naming the cell.
func TestAttribReconcileCatchesCorruption(t *testing.T) {
	a := NewAttribAgg()
	a.Record("p", "vanilla", "fp1", 100, 0, nil)
	a.Record("p", "pythia", "fp1", 130, 0, map[string]SiteCount{
		"@main#0:pac.sign": {Execs: 1, Cycles: 10},
	})
	r := a.Rows()[0]
	r.Categories[harden.CategoryPA] = 0 // simulate a dropped site
	err := r.Reconcile()
	if err == nil {
		t.Fatal("Reconcile accepted corrupted categories")
	}
	if !strings.Contains(err.Error(), "p/pythia") {
		t.Errorf("diagnostic does not name the cell: %v", err)
	}
}

// TestAttribNilSafe: the nil aggregator is inert, like CoverageAgg —
// call sites record unconditionally through Current*() accessors.
func TestAttribNilSafe(t *testing.T) {
	var a *AttribAgg
	a.Record("p", "pythia", "fp", 1, 0, nil)
	if rows := a.Rows(); rows != nil {
		t.Fatalf("nil agg rows: %+v", rows)
	}
	if CurrentAttrib() != nil {
		t.Fatal("CurrentAttrib without session must be nil")
	}
}

// TestAttribUnknownOpCategorized: a hardening site with an op outside
// the known families lands in meta rather than vanishing — the
// reconciliation identity depends on every site being counted.
func TestAttribUnknownOpCategorized(t *testing.T) {
	a := NewAttribAgg()
	a.Record("p", "vanilla", "fp1", 100, 0, nil)
	a.Record("p", "pythia", "fp1", 110, 0, map[string]SiteCount{
		"@main#0:mystery.op": {Execs: 1, Cycles: 4},
	})
	r := a.Rows()[0]
	if r.Categories[harden.CategoryMeta] != 4 {
		t.Fatalf("unknown op not in meta: %+v", r.Categories)
	}
	if err := r.Reconcile(); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
}

// TestAttribRowsDeterministic: a row's category sums do not depend on
// map iteration order, so identical aggregates give bit-identical rows
// (and a saved history record is reproducible).
func TestAttribRowsDeterministic(t *testing.T) {
	rows := func() []AttribRow {
		a := NewAttribAgg()
		a.Record("p", "vanilla", "fp1", 1e6, 0, nil)
		sites := make(map[string]SiteCount)
		for i := 0; i < 64; i++ {
			sites[fmt.Sprintf("@f#%d:pac.sign", i)] = SiteCount{Execs: 3, Cycles: 1000.1 + float64(i)/7}
		}
		a.Record("p", "cpa", "fp1", 1.2e6, 0, sites)
		return a.Rows()
	}
	want := rows()
	for i := 0; i < 20; i++ {
		if got := rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rows differ between identical aggregates:\n%v\n%v", got[0].Categories, want[0].Categories)
		}
	}
}
