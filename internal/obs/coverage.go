package obs

// Defense-coverage telemetry: which of the statically inserted
// hardening checks (PA sign/auth, canary store/check, DFI def/use)
// actually executed. The hardening passes stamp every inserted
// instruction with a stable site id (harden.AssignSites); every VM run
// returns its per-site executions and fault outcomes (vm.Result.Sites);
// the workload and attack runners fold each run's counts into the
// session's CoverageAgg keyed by (profile, scheme). The report closes the gap the aggregate overhead
// tables leave open: checks that are paid for statically but never
// exercised dynamically are listed by name.

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// SiteCount is one check site's dynamic tally: executions, faults, and
// the modeled cycles attributed to it (charged only while a session
// arms cycle charging). It is the per-site entry of every vm.Result,
// and CoverageAgg and AttribAgg fold it as it comes.
type SiteCount struct {
	Execs  int64   `json:"execs"`
	Faults int64   `json:"faults"`
	Cycles float64 `json:"cycles,omitempty"`
}

type covKey struct{ profile, scheme string }

type covGroup struct {
	static map[string]bool
	dyn    map[string]SiteCount
	runs   int
	instrs int
}

// CoverageAgg accumulates defense-coverage counts across runs.
// Concurrency-safe: prewarm workers record while HTTP handlers read.
type CoverageAgg struct {
	mu     sync.Mutex
	groups map[covKey]*covGroup
}

// NewCoverageAgg returns an empty aggregator.
func NewCoverageAgg() *CoverageAgg {
	return &CoverageAgg{groups: make(map[covKey]*covGroup)}
}

// Record folds one run into the (profile, scheme) group: the module's
// static site ids and instruction total (identical across runs of the
// same build, so they overwrite), plus the run's dynamic per-site
// counts.
func (a *CoverageAgg) Record(profile, scheme string, static []string, instrs int, dyn map[string]SiteCount) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	k := covKey{profile, scheme}
	g := a.groups[k]
	if g == nil {
		g = &covGroup{static: make(map[string]bool), dyn: make(map[string]SiteCount)}
		a.groups[k] = g
	}
	for _, id := range static {
		g.static[id] = true
	}
	g.instrs = instrs
	g.runs++
	for id, c := range dyn {
		prev := g.dyn[id]
		prev.Execs += c.Execs
		prev.Faults += c.Faults
		g.dyn[id] = prev
	}
}

// CoverageRow is one (profile, scheme) line of the report.
type CoverageRow struct {
	Profile  string  `json:"profile"`
	Scheme   string  `json:"scheme"`
	Static   int     `json:"static_sites"`
	Executed int     `json:"executed_sites"`
	Faults   int64   `json:"faults"`
	Runs     int     `json:"runs"`
	Density  float64 `json:"density_pct"` // static check sites as % of static instructions
	// Never lists site ids instrumented but never executed, sorted.
	Never []string `json:"never_executed"`
}

// Rows snapshots the aggregate, sorted by profile then scheme.
func (a *CoverageAgg) Rows() []CoverageRow {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rows := make([]CoverageRow, 0, len(a.groups))
	for k, g := range a.groups {
		r := CoverageRow{Profile: k.profile, Scheme: k.scheme, Static: len(g.static), Runs: g.runs, Never: []string{}}
		for id := range g.static {
			c, ok := g.dyn[id]
			if ok && c.Execs > 0 {
				r.Executed++
			} else {
				r.Never = append(r.Never, id)
			}
			r.Faults += c.Faults
		}
		sort.Strings(r.Never)
		if g.instrs > 0 {
			r.Density = 100 * float64(len(g.static)) / float64(g.instrs)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Profile != rows[j].Profile {
			return rows[i].Profile < rows[j].Profile
		}
		return rows[i].Scheme < rows[j].Scheme
	})
	return rows
}

// WriteReport renders the coverage table as "# "-prefixed lines (the
// pythia-bench -coverage stderr output).
func (a *CoverageAgg) WriteReport(w io.Writer) {
	rows := a.Rows()
	fmt.Fprintf(w, "# defense coverage: static check sites instrumented vs dynamically exercised\n")
	fmt.Fprintf(w, "# %-16s %-9s %7s %9s %7s %8s %7s  %s\n",
		"profile", "scheme", "static", "executed", "cover", "density", "faults", "never-executed")
	for _, r := range rows {
		cover := "-"
		if r.Static > 0 {
			cover = fmt.Sprintf("%.1f%%", 100*float64(r.Executed)/float64(r.Static))
		}
		never := fmt.Sprintf("%d", len(r.Never))
		if len(r.Never) > 0 {
			never = fmt.Sprintf("%d (first: %s)", len(r.Never), r.Never[0])
		}
		fmt.Fprintf(w, "# %-16s %-9s %7d %9d %7s %7.2f%% %7d  %s\n",
			r.Profile, r.Scheme, r.Static, r.Executed, cover, r.Density, r.Faults, never)
	}
}
