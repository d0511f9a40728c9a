package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestRunRecordsCoverage: with a coverage aggregate armed, a workload
// run folds its static site inventory and the VM's per-site tally into
// the session — and the executed set is a strict subset of the static
// set on a profile with cold paths (the report's whole point is
// surfacing never-executed checks).
func TestRunRecordsCoverage(t *testing.T) {
	sess := obs.Start(&obs.Session{Coverage: obs.NewCoverageAgg()})
	defer obs.Stop()

	p := workload.Profiles()[0]
	res, err := workload.Run(&p, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticSites == 0 {
		t.Fatal("pythia run reports no static sites")
	}

	rows := sess.Coverage.Rows()
	if len(rows) != 1 {
		t.Fatalf("got %d coverage rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Profile != p.Name || r.Scheme != core.SchemePythia.String() {
		t.Errorf("row key = %s/%s, want %s/%v", r.Profile, r.Scheme, p.Name, core.SchemePythia)
	}
	if r.Static != res.StaticSites {
		t.Errorf("coverage static %d != run static %d", r.Static, res.StaticSites)
	}
	if r.Executed == 0 {
		t.Error("no site counted as executed")
	}
	if r.Executed > r.Static {
		t.Errorf("executed %d > static %d", r.Executed, r.Static)
	}
	if r.Executed+len(r.Never) != r.Static {
		t.Errorf("executed %d + never %d != static %d", r.Executed, len(r.Never), r.Static)
	}
	if r.Density <= 0 {
		t.Errorf("density = %v", r.Density)
	}
	// The run's own executed-site count agrees with the aggregate.
	if res.ExecutedSites != r.Executed {
		t.Errorf("run executed %d sites, row executed %d", res.ExecutedSites, r.Executed)
	}
}
