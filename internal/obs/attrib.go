package obs

// The overhead attribution engine. The aggregate bench tables say that
// a scheme costs N% on a profile; this layer says *which checks* cost
// it. While a session arms attribution, the VM charges the modeled
// cycles spent at every hardening check site to that site's entry in
// vm.Result.Sites (delta attribution: the meter charge between two
// consecutive ticks belongs to the earlier instruction, so a site's
// cost includes its own expansion plus the memory traffic it causes),
// keyed by the stable "@func#N:op" ids the hardening passes stamp
// (harden.AssignSites). The workload runner folds each run's per-site
// tally into an AttribAgg; Rows then diffs
// every hardened run against the vanilla run of the same source and
// decomposes the total cycle delta into check-kind categories:
//
//	pa       pac.sign/auth/strip and obj.seal/check sites
//	canary   canary.set/check sites
//	dfi      dfi.setdef/chkdef sites
//	meta     non-site bookkeeping (sectioned-allocator latency,
//	         heap-section init) plus any unclassified hardening site
//	residual total delta minus everything above: cache and branch
//	         effects of instrumentation that no single site owns
//
// The accounting is closed: categories (residual included) must sum to
// the measured overhead delta within ReconcileTol — Reconcile enforces
// the identity, and the residual is always reported, never dropped.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/harden"
	"repro/internal/perf"
)

// ReconcileTol is the relative tolerance of the attribution accounting
// identity: |sum(categories) - delta| must stay within this fraction
// of max(1, |delta|). The categories are exact float64 sums of meter
// charges, so the tolerance only absorbs association-order error from
// aggregation and a JSON round-trip.
const ReconcileTol = 1e-6

type attribKey struct{ profile, scheme, fp string }

// attribGroup accumulates runs of one (profile, scheme, fingerprint)
// cell. Modeled metrics are deterministic, so sums divided by the run
// count recover each run's exact values.
type attribGroup struct {
	runs     int
	cycles   float64
	bookkeep float64
	sites    map[string]SiteCount
}

// AttribAgg accumulates per-site cost profiles across runs.
// Concurrency-safe: prewarm workers record while HTTP handlers read.
type AttribAgg struct {
	mu     sync.Mutex
	groups map[attribKey]*attribGroup
}

// NewAttribAgg returns an empty aggregator.
func NewAttribAgg() *AttribAgg {
	return &AttribAgg{groups: make(map[attribKey]*attribGroup)}
}

// Record folds one run into its (profile, scheme, fingerprint) cell:
// the run's total modeled cycles, its non-site bookkeeping cycles, and
// the per-site tally's executions and cycles (nil for vanilla runs,
// which contribute only the baseline total). Nil-receiver safe, like
// CoverageAgg.
func (a *AttribAgg) Record(profile, scheme, fingerprint string, totalCycles, bookkeepCycles float64, sites map[string]SiteCount) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	k := attribKey{profile, scheme, fingerprint}
	g := a.groups[k]
	if g == nil {
		g = &attribGroup{sites: make(map[string]SiteCount)}
		a.groups[k] = g
	}
	g.runs++
	g.cycles += totalCycles
	g.bookkeep += bookkeepCycles
	for id, c := range sites {
		prev := g.sites[id]
		prev.Execs += c.Execs
		prev.Cycles += c.Cycles
		g.sites[id] = prev
	}
}

// SiteCostRow is one site's cost in an attribution row, per run.
type SiteCostRow struct {
	Site   string  `json:"site"`
	Count  int64   `json:"count"`
	Cycles float64 `json:"cycles"`
}

// AttribRow decomposes one hardened (profile, scheme) cell's overhead
// against its vanilla baseline. All cycle figures are per-run values
// (aggregated sums divided by the run count, exact because modeled
// execution is deterministic).
type AttribRow struct {
	Profile     string  `json:"profile"`
	Scheme      string  `json:"scheme"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Runs        int     `json:"runs"`
	BaseCycles  float64 `json:"base_cycles"`
	Cycles      float64 `json:"cycles"`
	Delta       float64 `json:"delta_cycles"`
	OverheadPct float64 `json:"overhead_pct"`
	// Categories maps each check-kind category (harden.Categories) to
	// its per-run cycle cost; the residual is a category, not a gap.
	Categories map[string]float64 `json:"categories"`
	// Sites lists every check site's per-run cost, costliest first.
	Sites []SiteCostRow `json:"sites,omitempty"`
}

// Reconcile checks the accounting identity: every category (residual
// included) must sum to the overhead delta within ReconcileTol. A
// failure means sites were dropped or double-counted somewhere between
// the VM and this report — an attribution bug, never a rounding issue.
func (r *AttribRow) Reconcile() error {
	var sum float64
	for _, cat := range harden.Categories {
		sum += r.Categories[cat]
	}
	tol := ReconcileTol * maxf(1, absf(r.Delta))
	if d := absf(sum - r.Delta); d > tol {
		return fmt.Errorf("obs: attribution for %s/%s does not reconcile: categories sum to %.6f cycles, overhead delta is %.6f (off by %.6g, tolerance %.6g)",
			r.Profile, r.Scheme, sum, r.Delta, sum-r.Delta, tol)
	}
	return nil
}

// Rows diffs every hardened cell against the vanilla run of the same
// (profile, fingerprint) and returns the decomposition, sorted by
// profile, scheme, fingerprint. Cells with no vanilla baseline in the
// aggregate cannot be attributed and are skipped; vanilla cells appear
// only as baselines.
func (a *AttribAgg) Rows() []AttribRow {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	type baseKey struct{ profile, fp string }
	bases := make(map[baseKey]*attribGroup)
	for k, g := range a.groups {
		if k.scheme == "vanilla" {
			bases[baseKey{k.profile, k.fp}] = g
		}
	}
	var rows []AttribRow
	for k, g := range a.groups {
		if k.scheme == "vanilla" {
			continue
		}
		base, ok := bases[baseKey{k.profile, k.fp}]
		if !ok || base.runs == 0 || g.runs == 0 {
			continue
		}
		r := AttribRow{
			Profile:     k.profile,
			Scheme:      k.scheme,
			Fingerprint: k.fp,
			Runs:        g.runs,
			BaseCycles:  base.cycles / float64(base.runs),
			Cycles:      g.cycles / float64(g.runs),
			Categories:  make(map[string]float64, len(harden.Categories)),
		}
		r.Delta = r.Cycles - r.BaseCycles
		if ov, err := perf.Overhead(r.BaseCycles, r.Cycles); err == nil {
			r.OverheadPct = ov
		}
		for _, cat := range harden.Categories {
			r.Categories[cat] = 0
		}
		for id, c := range g.sites {
			r.Sites = append(r.Sites, SiteCostRow{Site: id, Count: c.Execs / g.runs64(), Cycles: c.Cycles / float64(g.runs)})
		}
		sort.Slice(r.Sites, func(i, j int) bool {
			if r.Sites[i].Cycles != r.Sites[j].Cycles {
				return r.Sites[i].Cycles > r.Sites[j].Cycles
			}
			return r.Sites[i].Site < r.Sites[j].Site
		})
		// Sum in the sorted order, so the float sums do not depend on
		// map iteration order.
		for _, s := range r.Sites {
			r.Categories[harden.SiteCategory(s.Site)] += s.Cycles
		}
		// Bookkeeping that belongs to no site: the hardened run's extra
		// allocator/init cycles over the baseline's.
		r.Categories[harden.CategoryMeta] += g.bookkeep/float64(g.runs) - base.bookkeep/float64(base.runs)
		var explained float64
		for _, cat := range harden.Categories {
			explained += r.Categories[cat]
		}
		r.Categories[harden.CategoryResidual] = r.Delta - explained
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Profile != rows[j].Profile {
			return rows[i].Profile < rows[j].Profile
		}
		if rows[i].Scheme != rows[j].Scheme {
			return rows[i].Scheme < rows[j].Scheme
		}
		return rows[i].Fingerprint < rows[j].Fingerprint
	})
	return rows
}

func (g *attribGroup) runs64() int64 { return int64(g.runs) }

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
