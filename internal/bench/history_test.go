package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

func sampleRecord() *Record {
	return &Record{
		SchemaVersion: HistorySchema,
		Env:           Fingerprint(),
		Quick:         true,
		Repeat:        3,
		TotalMS:       []float64{1000, 1010, 990},
		PrewarmMS:     []float64{700, 705, 695},
		Runs: []RunRecord{
			{Profile: "502.gcc_r", Scheme: "pythia", Cycles: 2.5e6, Instrs: 1e6, PAInstrs: 5000, BinarySize: 120000},
			{Profile: "502.gcc_r", Scheme: "vanilla", Cycles: 2.0e6, Instrs: 9e5, PAInstrs: 0, BinarySize: 100000},
			{Profile: "nginx", Scheme: "vanilla", Cycles: 3.0e6, Instrs: 1.4e6, PAInstrs: 0, BinarySize: 90000},
		},
		Experiments: []ExperimentRecord{
			{ID: "fig4a", TableDigest: "sha256:0011", WallMS: []float64{10, 11, 12}},
			{ID: "bruteforce", TableDigest: "sha256:2233", WallMS: []float64{1, 1, 1}},
		},
	}
}

// TestHistoryRoundTrip: write -> load -> compare against self must be
// lossless and report zero regressions.
func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	rec := sampleRecord()
	if err := AppendRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := LatestRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Repeat != rec.Repeat || loaded.Quick != rec.Quick || len(loaded.Runs) != len(rec.Runs) {
		t.Fatalf("round trip lost data: %+v", loaded)
	}
	for i, r := range rec.Runs {
		if loaded.Runs[i] != r {
			t.Fatalf("run %d: got %+v want %+v", i, loaded.Runs[i], r)
		}
	}
	if loaded.Env.GoVersion != rec.Env.GoVersion || loaded.Env.NumCPU != rec.Env.NumCPU {
		t.Fatalf("env fingerprint lost: %+v", loaded.Env)
	}

	cmp := Compare(loaded, rec, 0)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("self-comparison must have zero regressions, got %v", regs)
	}
	for _, r := range cmp.Runs {
		if r.Verdict != "exact" {
			t.Errorf("%s/%s: self-comparison verdict %q, want exact", r.Profile, r.Scheme, r.Verdict)
		}
	}
	for _, e := range cmp.Experiments {
		if !e.DigestMatch {
			t.Errorf("%s: self-comparison digest mismatch", e.ID)
		}
		if e.Wall == "slower" || e.Wall == "faster" {
			t.Errorf("%s: identical wall samples classified %q", e.ID, e.Wall)
		}
	}
}

// TestHistoryAppendOnly: a second append leaves the first record
// intact and LatestRecord returns the newer one.
func TestHistoryAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	first := sampleRecord()
	if err := AppendRecord(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleRecord()
	second.Repeat = 5
	if err := AppendRecord(path, second); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Repeat != 3 || recs[1].Repeat != 5 {
		t.Fatalf("append-only history broken: %d records", len(recs))
	}
	latest, err := LatestRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Repeat != 5 {
		t.Fatalf("LatestRecord returned the wrong record: %+v", latest)
	}
}

// TestCompareRegression: a baseline with artificially lower modeled
// cycles must regress the current record beyond any zero threshold,
// and the verdict table must say so.
func TestCompareRegression(t *testing.T) {
	base := sampleRecord()
	cur := sampleRecord()
	for i := range base.Runs {
		base.Runs[i].Cycles *= 0.5 // current now looks 2x slower
	}
	cmp := Compare(cur, base, 0)
	regs := cmp.Regressions()
	if len(regs) != len(base.Runs) {
		t.Fatalf("want %d regressions, got %v", len(base.Runs), regs)
	}
	tables := cmp.Tables()
	if len(tables) != 2 {
		t.Fatalf("want 2 verdict tables, got %d", len(tables))
	}
	rendered := tables[0].String()
	if !strings.Contains(rendered, "REGRESSED") || !strings.Contains(rendered, "+100.00") {
		t.Fatalf("modeled verdict table missing regression marks:\n%s", rendered)
	}

	// A generous threshold absorbs the same delta.
	cmp = Compare(cur, base, 150)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("threshold 150%% must absorb a 100%% delta, got %v", regs)
	}
}

// TestCompareBinarySizeGate: binary size growth alone (cycles equal)
// must also gate.
func TestCompareBinarySizeGate(t *testing.T) {
	base := sampleRecord()
	cur := sampleRecord()
	cur.Runs[0].BinarySize += 4096
	cmp := Compare(cur, base, 0)
	regs := cmp.Regressions()
	if len(regs) != 1 || !strings.Contains(regs[0], "502.gcc_r/pythia") {
		t.Fatalf("binary-size regression not detected: %v", regs)
	}
}

// TestCompareMissingRuns: runs present on only one side are reported
// but never gate.
func TestCompareMissingRuns(t *testing.T) {
	base := sampleRecord()
	cur := sampleRecord()
	cur.Runs = cur.Runs[:2] // drop nginx/vanilla
	cur.Runs = append(cur.Runs, RunRecord{Profile: "new_prof", Scheme: "pythia", Cycles: 1, BinarySize: 1})
	cmp := Compare(cur, base, 0)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("missing/new runs must not gate: %v", regs)
	}
	var sawNew, sawMissing bool
	for _, r := range cmp.Runs {
		sawNew = sawNew || r.Verdict == "new"
		sawMissing = sawMissing || r.Verdict == "missing"
	}
	if !sawNew || !sawMissing {
		t.Fatalf("new/missing verdicts not reported: %+v", cmp.Runs)
	}
}

// TestCompareWallVerdicts: clearly separated wall samples with enough
// repeats are classified slower; digest changes are report-only.
func TestCompareWallVerdicts(t *testing.T) {
	base := sampleRecord()
	cur := sampleRecord()
	base.Experiments[0].WallMS = []float64{10, 10.5, 11, 10.2, 10.8, 10.4}
	cur.Experiments[0].WallMS = []float64{20, 20.5, 21, 20.2, 20.8, 20.4}
	cur.Experiments[1].TableDigest = "sha256:ffff"
	cmp := Compare(cur, base, 0)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("wall slowdown and digest change must be report-only: %v", regs)
	}
	byID := map[string]ExpVerdict{}
	for _, e := range cmp.Experiments {
		byID[e.ID] = e
	}
	if v := byID["fig4a"]; v.Wall != "slower" {
		t.Fatalf("fig4a wall verdict = %q (p=%v, overlap=%v), want slower", v.Wall, v.P, v.CIOverlap)
	}
	if v := byID["bruteforce"]; v.DigestMatch {
		t.Fatal("bruteforce digest change not detected")
	}
	rendered := cmp.Tables()[1].String()
	if !strings.Contains(rendered, "slower") || !strings.Contains(rendered, "DIFFERS") {
		t.Fatalf("wall verdict table incomplete:\n%s", rendered)
	}
}

func TestTableDigestStable(t *testing.T) {
	tbl := &report.Table{ID: "x", Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	d1 := TableDigest(tbl)
	d2 := TableDigest(tbl)
	if d1 != d2 || !strings.HasPrefix(d1, "sha256:") {
		t.Fatalf("digest unstable or malformed: %q vs %q", d1, d2)
	}
	tbl.Rows[0][0] = "2"
	if TableDigest(tbl) == d1 {
		t.Fatal("digest must change with content")
	}
}

func TestFingerprintPopulated(t *testing.T) {
	env := Fingerprint()
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" || env.GOMAXPROCS < 1 || env.NumCPU < 1 {
		t.Fatalf("fingerprint incomplete: %+v", env)
	}
}

// TestCompareDuplicateProfileNames: several runs can share a (profile,
// scheme) pair while executing different workloads (the nginx
// case-study variants). Matching must key on the workload fingerprint
// — order-independently — and the rendered rows must be tellable
// apart.
func TestCompareDuplicateProfileNames(t *testing.T) {
	base := sampleRecord()
	base.Runs = []RunRecord{
		{Profile: "nginx", Scheme: "vanilla", Fingerprint: "aaaaaaaa0001", Cycles: 1.0e6, BinarySize: 90000},
		{Profile: "nginx", Scheme: "vanilla", Fingerprint: "bbbbbbbb0002", Cycles: 3.0e6, BinarySize: 90000},
	}
	cur := sampleRecord()
	// Same runs, opposite order: a name-keyed match would pair 1e6
	// against 3e6 and report a 200% regression.
	cur.Runs = []RunRecord{
		{Profile: "nginx", Scheme: "vanilla", Fingerprint: "bbbbbbbb0002", Cycles: 3.0e6, BinarySize: 90000},
		{Profile: "nginx", Scheme: "vanilla", Fingerprint: "aaaaaaaa0001", Cycles: 1.0e6, BinarySize: 90000},
	}
	cmp := Compare(cur, base, 0)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("fingerprint-keyed match must report zero regressions, got %v", regs)
	}
	for _, r := range cmp.Runs {
		if r.Verdict != "exact" {
			t.Fatalf("%s/%s: verdict %q, want exact", r.Profile, r.Scheme, r.Verdict)
		}
	}
	rendered := cmp.Tables()[0].String()
	if !strings.Contains(rendered, "nginx@aaaaaaaa") || !strings.Contains(rendered, "nginx@bbbbbbbb") {
		t.Fatalf("duplicate rows not disambiguated:\n%s", rendered)
	}
}

// TestHistorySchemaVersioning: v2 records round-trip with their
// attribution block; legacy records — both explicit schema 1 and
// version-less files from before the field existed — decode without
// error and simply carry no attribution. Only a FUTURE schema is
// rejected.
func TestHistorySchemaVersioning(t *testing.T) {
	dir := t.TempDir()

	// v2 round-trip with attribution embedded.
	path := filepath.Join(dir, "BENCH_v2.json")
	rec := sampleRecord()
	rec.Attribution = []obs.AttribRow{{
		Profile: "502.gcc_r", Scheme: "pythia", Delta: 5e5, OverheadPct: 25,
		Categories: map[string]float64{"pa": 4e5, "residual": 1e5},
		Sites:      []obs.SiteCostRow{{Site: "@f#0:pac.sign", Count: 100, Cycles: 4e5}},
	}}
	if err := AppendRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := LatestRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SchemaVersion != HistorySchema || len(loaded.Attribution) != 1 {
		t.Fatalf("v2 round trip: schema=%d attribution=%d", loaded.SchemaVersion, len(loaded.Attribution))
	}
	a := loaded.Attribution[0]
	if a.Categories["pa"] != 4e5 || a.Sites[0].Site != "@f#0:pac.sign" {
		t.Fatalf("attribution lost content: %+v", a)
	}

	// Version-less legacy document (pre-schema seed): decodes as 0.
	legacy := filepath.Join(dir, "BENCH_legacy.json")
	doc := `{"env": {"go_version": "go1.22"}, "quick": true, "repeat": 1,
	  "runs": [{"profile": "nginx", "scheme": "vanilla", "cycles": 1e6, "binary_size": 1}],
	  "experiments": []}`
	if err := os.WriteFile(legacy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	lrec, err := LatestRecord(legacy)
	if err != nil {
		t.Fatalf("version-less record must decode: %v", err)
	}
	if lrec.SchemaVersion != 0 || lrec.Attribution != nil || lrec.Runs[0].Profile != "nginx" {
		t.Fatalf("legacy decode: %+v", lrec)
	}

	// Explicit v1 record: also fine.
	v1 := filepath.Join(dir, "BENCH_v1.json")
	old := sampleRecord()
	old.SchemaVersion = 1
	if err := AppendRecord(v1, old); err != nil {
		t.Fatal(err)
	}
	if _, err := LatestRecord(v1); err != nil {
		t.Fatalf("schema 1 record must decode: %v", err)
	}

	// A future schema must be refused, not misread.
	future := filepath.Join(dir, "BENCH_future.json")
	fut := sampleRecord()
	fut.SchemaVersion = HistorySchema + 1
	if err := AppendRecord(future, fut); err != nil {
		t.Fatal(err)
	}
	if _, err := LatestRecord(future); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema must be rejected, got %v", err)
	}
}

// TestBaselineAttributionLoads: the committed perf-gate baseline decodes
// into obs.AttribRow as it is, and a copy in which one cell costs 5%
// more, at every site, regresses with that cell's costliest site named
// first in the blame.
func TestBaselineAttributionLoads(t *testing.T) {
	base, err := LatestRecord("../../testdata/baseline_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Attribution) != 19 {
		t.Fatalf("baseline attribution rows = %d, want 19", len(base.Attribution))
	}
	withSites := 0
	for i := range base.Attribution {
		r := &base.Attribution[i]
		if err := r.Reconcile(); err != nil {
			t.Error(err)
		}
		if len(r.Sites) > 0 {
			withSites++
		}
	}
	if withSites != 16 {
		t.Errorf("rows with sites = %d, want 16 (every row but pythia-heap-only's three)", withSites)
	}

	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var cur Record
	if err := json.Unmarshal(b, &cur); err != nil {
		t.Fatal(err)
	}
	row := &cur.Attribution[0]
	const grow = 1.05
	row.Cycles *= grow
	for i := range row.Sites {
		row.Sites[i].Cycles *= grow
	}
	for cat := range row.Categories {
		row.Categories[cat] *= grow
	}
	for i := range cur.Runs {
		r := &cur.Runs[i]
		if r.Profile == row.Profile && r.Scheme == row.Scheme && r.Fingerprint == row.Fingerprint {
			r.Cycles *= grow
		}
	}
	cmp := Compare(&cur, base, 1)
	var regressed []RunVerdict
	for _, v := range cmp.Runs {
		if v.Regressed {
			regressed = append(regressed, v)
		}
	}
	if len(regressed) != 1 || regressed[0].Profile != row.Profile || regressed[0].Scheme != row.Scheme {
		t.Fatalf("regressed verdicts = %+v, want only %s/%s", regressed, row.Profile, row.Scheme)
	}
	if want := "sites [" + row.Sites[0].Site + " +"; !strings.Contains(regressed[0].Blame, want) {
		t.Errorf("blame %q does not name the costliest site first (%q)", regressed[0].Blame, want)
	}
}
