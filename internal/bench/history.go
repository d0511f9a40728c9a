package bench

// Bench history: the append-only BENCH_<rev>.json record format behind
// `pythia-bench -save/-baseline/-compare`, and the comparison logic
// that turns two records into a per-experiment verdict table.
//
// A record carries two kinds of measurement with very different
// statistics:
//
//   - modeled metrics (cycles, binary size) from the simulated machine
//     are deterministic — the same source tree produces bit-identical
//     values on any host — so comparisons are exact and a committed
//     baseline can gate CI;
//   - wall-clock samples (one per -repeat) are host noise, so they are
//     compared with robust statistics (median/MAD outlier rejection,
//     bootstrap CIs, Mann-Whitney U) and never gate the exit code.
//
// Records append to their file as concatenated JSON documents, so a
// single BENCH_<rev>.json accumulates the trajectory of a revision and
// LoadHistory decodes all of them in order.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

// HistorySchema versions the record format. v2 added the Attribution
// block; records never carry a schema newer than the writing binary,
// and readers accept anything at or below their own (absent fields
// simply decode to their zero values), so v1 files — including
// version-less seeds that predate the field — keep loading.
const HistorySchema = 2

// wallAlpha is the two-sided significance level for wall-time verdicts.
const wallAlpha = 0.05

// EnvFingerprint makes a saved record self-describing: the toolchain
// and host it was measured on, and the git revision when available.
type EnvFingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitRev     string `json:"git_rev,omitempty"`
}

// Fingerprint captures the current environment. The git revision is
// best-effort: empty when the binary runs outside a checkout.
func Fingerprint() EnvFingerprint {
	return EnvFingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     gitRev(),
	}
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// RunRecord is the modeled (deterministic) profile of one cached
// (profile, scheme) execution. Fingerprint distinguishes runs whose
// profiles share a name but execute different workloads (the nginx
// case-study variants) — without it, baseline matching is ambiguous.
type RunRecord struct {
	Profile     string  `json:"profile"`
	Scheme      string  `json:"scheme"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Cycles      float64 `json:"cycles"`
	Instrs      int64   `json:"instrs"`
	PAInstrs    int64   `json:"pa_instrs"`
	BinarySize  int64   `json:"binary_size"`
}

// ExperimentRecord is one experiment's slice of a record: the rendered
// table's digest (modeled, deterministic) and its wall-time samples,
// one per repeat.
type ExperimentRecord struct {
	ID          string    `json:"id"`
	TableDigest string    `json:"table_digest"`
	WallMS      []float64 `json:"wall_ms"`
}

// Record is one appended entry of a BENCH_<rev>.json history file.
type Record struct {
	SchemaVersion int                `json:"schema"`
	SavedAt       string             `json:"saved_at,omitempty"`
	Env           EnvFingerprint     `json:"env"`
	Quick         bool               `json:"quick"`
	Repeat        int                `json:"repeat"`
	TotalMS       []float64          `json:"total_ms"`
	PrewarmMS     []float64          `json:"prewarm_ms"`
	Runs          []RunRecord        `json:"runs"`
	Experiments   []ExperimentRecord `json:"experiments"`
	// Metrics snapshots the obs registry (cache hit/miss counters, pool
	// sizing, engine routing) when a session was active during the run.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Attribution carries the per-cell overhead decomposition captured
	// when the run armed the attribution engine; the perf gate uses the
	// baseline's copy to blame regressions (schema v2).
	Attribution []obs.AttribRow `json:"attribution,omitempty"`
}

// TableDigest fingerprints a rendered table; format-independent of the
// -format flag because it always digests the ASCII rendering.
func TableDigest(t *report.Table) string {
	sum := sha256.Sum256([]byte(t.String()))
	return fmt.Sprintf("sha256:%x", sum[:8])
}

// RunRecordsFrom snapshots the runner's completed executions as sorted
// RunRecords (by profile, scheme, fingerprint) so records diff cleanly.
func RunRecordsFrom(r *Runner) []RunRecord {
	var out []RunRecord
	for _, res := range r.Results() {
		rr := RunRecord{
			Profile:     res.Profile.Name,
			Scheme:      res.Scheme.String(),
			Fingerprint: res.Profile.Fingerprint(),
			Cycles:      res.Counters.Cycles,
			Instrs:      res.Counters.Instrs,
			PAInstrs:    res.Counters.PAInstrs,
			BinarySize:  res.BinarySize,
		}
		out = append(out, rr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Profile != out[j].Profile {
			return out[i].Profile < out[j].Profile
		}
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// AppendRecord appends rec to the history file at path, creating it if
// needed. Records are written as indented JSON documents back to back;
// the file stays loadable after any number of appends.
func AppendRecord(path string, rec *Record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("bench: history %s: %w", path, err)
	}
	_, werr := f.Write(append(b, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("bench: history %s: %w", path, werr)
	}
	return nil
}

// LoadHistory decodes every record in the file, oldest first.
func LoadHistory(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: history %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []Record
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("bench: history %s: record %d: %w", path, len(out)+1, err)
		}
		if rec.SchemaVersion > HistorySchema {
			return nil, fmt.Errorf("bench: history %s: record %d has schema %d, this binary reads <= %d", path, len(out)+1, rec.SchemaVersion, HistorySchema)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: history %s: no records", path)
	}
	return out, nil
}

// LatestRecord loads the newest record in the history file — the one a
// `-compare` run measures against.
func LatestRecord(path string) (*Record, error) {
	recs, err := LoadHistory(path)
	if err != nil {
		return nil, err
	}
	return &recs[len(recs)-1], nil
}

// RunVerdict is one modeled-metric comparison row. Display is the
// rendered profile label: the bare name, or name@fp8 when several runs
// share a (profile, scheme) pair and need disambiguation.
type RunVerdict struct {
	Profile, Scheme         string
	Fingerprint             string
	Display                 string
	BaseCycles, CurCycles   float64
	BaseBytes, CurBytes     int64
	CyclesPct, BytesPct     float64
	Verdict                 string
	Regressed               bool
	MissingBase, MissingCur bool
	// Blame names the attribution categories and sites whose cost grew
	// the most, when both records carry attribution for this cell; empty
	// otherwise. Only populated for regressed verdicts.
	Blame string
}

// ExpVerdict is one per-experiment comparison row: the table digest
// (exact) and the wall-time statistics (report-only).
type ExpVerdict struct {
	ID                    string
	DigestMatch           bool
	BaseWallMS, CurWallMS []float64 // outlier-rejected samples
	BaseMed, CurMed       float64
	WallPct               float64
	P                     float64
	CIOverlap             bool
	Wall                  string // "similar", "slower", "faster", "n/a"
	MissingBase           bool
}

// Comparison is the outcome of measuring a current record against a
// baseline.
type Comparison struct {
	ThresholdPct float64
	Runs         []RunVerdict
	Experiments  []ExpVerdict
}

// Regressions lists the gating failures: modeled metrics (cycles or
// binary size) that grew beyond the threshold. Wall-time slowdowns and
// digest changes never appear here — they are report-only.
func (c *Comparison) Regressions() []string {
	var out []string
	for _, r := range c.Runs {
		if r.Regressed {
			s := fmt.Sprintf("%s/%s: cycles %+.2f%%, size %+.2f%% (threshold %.2f%%)",
				r.label(), r.Scheme, r.CyclesPct, r.BytesPct, c.ThresholdPct)
			if r.Blame != "" {
				s += "; " + r.Blame
			}
			out = append(out, s)
		}
	}
	return out
}

// blameTopK bounds how many categories and sites a regression blame
// names — enough to act on, short enough for a one-line verdict.
const blameTopK = 3

// Compare measures cur against base. thresholdPct is the allowed
// relative growth of each modeled metric before a run counts as a
// regression; 0 means any growth regresses.
func Compare(cur, base *Record, thresholdPct float64) *Comparison {
	c := &Comparison{ThresholdPct: thresholdPct}

	type runKey struct{ profile, scheme, fp string }
	baseRuns := make(map[runKey]RunRecord, len(base.Runs))
	for _, r := range base.Runs {
		baseRuns[runKey{r.Profile, r.Scheme, r.Fingerprint}] = r
	}
	seen := make(map[runKey]bool, len(cur.Runs))
	for _, r := range cur.Runs {
		k := runKey{r.Profile, r.Scheme, r.Fingerprint}
		seen[k] = true
		v := RunVerdict{Profile: r.Profile, Scheme: r.Scheme, Fingerprint: r.Fingerprint, CurCycles: r.Cycles, CurBytes: r.BinarySize}
		b, ok := baseRuns[k]
		if !ok {
			v.MissingBase = true
			v.Verdict = "new"
			c.Runs = append(c.Runs, v)
			continue
		}
		v.BaseCycles, v.BaseBytes = b.Cycles, b.BinarySize
		v.CyclesPct = relPct(b.Cycles, r.Cycles)
		v.BytesPct = relPct(float64(b.BinarySize), float64(r.BinarySize))
		switch {
		case v.CyclesPct > thresholdPct || v.BytesPct > thresholdPct:
			v.Verdict = "REGRESSED"
			v.Regressed = true
			v.Blame = attribBlame(base.Attribution, cur.Attribution, r.Profile, r.Scheme, r.Fingerprint, blameTopK)
		case v.CyclesPct < 0 || v.BytesPct < 0:
			v.Verdict = "improved"
		case v.CyclesPct > 0 || v.BytesPct > 0:
			v.Verdict = "ok (within threshold)"
		default:
			v.Verdict = "exact"
		}
		c.Runs = append(c.Runs, v)
	}
	for _, r := range base.Runs {
		if k := (runKey{r.Profile, r.Scheme, r.Fingerprint}); !seen[k] {
			c.Runs = append(c.Runs, RunVerdict{
				Profile: r.Profile, Scheme: r.Scheme, Fingerprint: r.Fingerprint,
				BaseCycles: r.Cycles, BaseBytes: r.BinarySize,
				MissingCur: true, Verdict: "missing",
			})
		}
	}

	// Profiles that run several distinct workloads under one name get a
	// short fingerprint suffix so their rows are tellable apart.
	dup := make(map[[2]string]int, len(c.Runs))
	for _, v := range c.Runs {
		dup[[2]string{v.Profile, v.Scheme}]++
	}
	for i := range c.Runs {
		v := &c.Runs[i]
		v.Display = v.Profile
		if dup[[2]string{v.Profile, v.Scheme}] > 1 && len(v.Fingerprint) >= 8 {
			v.Display = v.Profile + "@" + v.Fingerprint[:8]
		}
	}

	baseExps := make(map[string]ExperimentRecord, len(base.Experiments))
	for _, e := range base.Experiments {
		baseExps[e.ID] = e
	}
	for _, e := range cur.Experiments {
		v := ExpVerdict{ID: e.ID}
		b, ok := baseExps[e.ID]
		if !ok {
			v.MissingBase = true
			v.Wall = "n/a (new)"
			c.Experiments = append(c.Experiments, v)
			continue
		}
		v.DigestMatch = e.TableDigest == b.TableDigest
		v.BaseWallMS = stats.RejectOutliers(b.WallMS, 0)
		v.CurWallMS = stats.RejectOutliers(e.WallMS, 0)
		v.BaseMed = stats.Median(v.BaseWallMS)
		v.CurMed = stats.Median(v.CurWallMS)
		v.WallPct = relPct(v.BaseMed, v.CurMed)
		if len(v.BaseWallMS) < 3 || len(v.CurWallMS) < 3 {
			v.Wall = "n/a (n<3)"
			c.Experiments = append(c.Experiments, v)
			continue
		}
		u := stats.MannWhitneyU(v.BaseWallMS, v.CurWallMS)
		v.P = u.P
		baseCI := stats.BootstrapCI(v.BaseWallMS, 0.95, 1000, 42)
		curCI := stats.BootstrapCI(v.CurWallMS, 0.95, 1000, 42)
		v.CIOverlap = baseCI.Overlaps(curCI)
		switch {
		case u.P < wallAlpha && !v.CIOverlap && v.CurMed > v.BaseMed:
			v.Wall = "slower"
		case u.P < wallAlpha && !v.CIOverlap && v.CurMed < v.BaseMed:
			v.Wall = "faster"
		default:
			v.Wall = "similar"
		}
		c.Experiments = append(c.Experiments, v)
	}
	return c
}

// label is the row label for this verdict, tolerant of verdicts built
// directly in tests without the Display pass.
func (r *RunVerdict) label() string {
	if r.Display != "" {
		return r.Display
	}
	return r.Profile
}

// relPct is the relative growth of cur over base, percent; 0 when base
// is 0 (nothing meaningful to normalize by).
func relPct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// Tables renders the comparison as two report tables: the gating
// modeled-metric verdicts, then the report-only per-experiment wall
// statistics.
func (c *Comparison) Tables() []*report.Table {
	modeled := &report.Table{
		ID:      "compare-modeled",
		Title:   "Modeled metrics vs baseline (exact; gates the exit code)",
		Columns: []string{"profile", "scheme", "base-Mcycles", "cur-Mcycles", "cycles%", "base-bytes", "cur-bytes", "bytes%", "verdict"},
	}
	regressed := 0
	for _, r := range c.Runs {
		if r.Regressed {
			regressed++
		}
		mc := func(v float64) string {
			return fmt.Sprintf("%.3f", v/1e6)
		}
		switch {
		case r.MissingBase:
			modeled.AddRow(r.label(), r.Scheme, "-", mc(r.CurCycles), "-", "-", r.CurBytes, "-", r.Verdict)
		case r.MissingCur:
			modeled.AddRow(r.label(), r.Scheme, mc(r.BaseCycles), "-", "-", r.BaseBytes, "-", "-", r.Verdict)
		default:
			modeled.AddRow(r.label(), r.Scheme, mc(r.BaseCycles), mc(r.CurCycles),
				fmt.Sprintf("%+.2f", r.CyclesPct), r.BaseBytes, r.CurBytes,
				fmt.Sprintf("%+.2f", r.BytesPct), r.Verdict)
		}
	}
	modeled.AddNote("%d run(s) compared, %d regression(s) beyond %.2f%% threshold; modeled metrics are deterministic, so any delta is a real code change", len(c.Runs), regressed, c.ThresholdPct)
	for _, r := range c.Runs {
		if r.Regressed && r.Blame != "" {
			modeled.AddNote("%s/%s %s", r.label(), r.Scheme, r.Blame)
		}
	}

	wall := &report.Table{
		ID:      "compare-wall",
		Title:   "Per-experiment verdicts: table digest (exact) and wall time (statistical, report-only)",
		Columns: []string{"experiment", "table", "wall-base-ms", "wall-cur-ms", "wall%", "U-p", "wall-verdict"},
	}
	for _, e := range c.Experiments {
		digest := "exact"
		if e.MissingBase {
			digest = "new"
		} else if !e.DigestMatch {
			digest = "DIFFERS"
		}
		p := "-"
		if e.P > 0 {
			p = fmt.Sprintf("%.3f", e.P)
		}
		med := func(v float64) string {
			if v != v { // NaN: no samples
				return "-"
			}
			return fmt.Sprintf("%.1f", v)
		}
		pct := "-"
		if !e.MissingBase && e.BaseMed == e.BaseMed && e.CurMed == e.CurMed {
			pct = fmt.Sprintf("%+.1f", e.WallPct)
		}
		wall.AddRow(e.ID, digest, med(e.BaseMed), med(e.CurMed), pct, p, e.Wall)
	}
	wall.AddNote("wall verdicts need >= 3 samples per side after MAD outlier rejection; 'slower'/'faster' requires Mann-Whitney p < %.2f AND disjoint 95%% bootstrap CIs", wallAlpha)
	return []*report.Table{modeled, wall}
}
