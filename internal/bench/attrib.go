package bench

// Attribution rendering: the bench surfaces that consume the obs
// attribution engine's rows — the `-attribution` stderr report and the
// perf gate's regression blame. The BENCH_<rev>.json history record
// stores the rows themselves (Record.Attribution).

import (
	"fmt"
	"sort"

	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/report"
)

// AttributionTable renders attribution rows as a report table: one row
// per hardened cell with its per-category decomposition, then the topN
// costliest sites of each cell as indented detail rows.
func AttributionTable(rows []obs.AttribRow, topN int) *report.Table {
	t := &report.Table{
		ID:      "attribution",
		Title:   "Overhead attribution vs vanilla (per-run modeled cycles)",
		Columns: append([]string{"profile", "scheme", "overhead%", "delta-cyc"}, harden.Categories...),
	}
	cyc := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	for _, r := range rows {
		cells := []any{r.Profile, r.Scheme, fmt.Sprintf("%.2f", r.OverheadPct), cyc(r.Delta)}
		for _, cat := range harden.Categories {
			cells = append(cells, cyc(r.Categories[cat]))
		}
		t.AddRow(cells...)
		for i, s := range r.Sites {
			if topN > 0 && i >= topN {
				t.AddRow("", fmt.Sprintf("  ... %d more site(s)", len(r.Sites)-topN))
				break
			}
			t.AddRow("", fmt.Sprintf("  %s", s.Site), "", cyc(s.Cycles),
				fmt.Sprintf("x%d", s.Count), harden.SiteCategory(s.Site))
		}
	}
	t.AddNote("categories (residual included) sum to delta-cyc exactly; residual = cache/branch effects no single site owns")
	return t
}

// attribBlame explains one regressed run verdict from the baseline and
// current attribution rows: which categories and sites grew the most.
// Empty when either side lacks an attribution row for the cell.
func attribBlame(base, cur []obs.AttribRow, profile, scheme, fp string, topN int) string {
	find := func(recs []obs.AttribRow) *obs.AttribRow {
		for i := range recs {
			r := &recs[i]
			if r.Profile == profile && r.Scheme == scheme && r.Fingerprint == fp {
				return r
			}
		}
		return nil
	}
	b, c := find(base), find(cur)
	if b == nil || c == nil {
		return ""
	}
	type delta struct {
		name string
		d    float64
	}
	var cats []delta
	for _, cat := range harden.Categories {
		if d := c.Categories[cat] - b.Categories[cat]; d != 0 {
			cats = append(cats, delta{cat, d})
		}
	}
	baseSites := make(map[string]float64, len(b.Sites))
	for _, s := range b.Sites {
		baseSites[s.Site] = s.Cycles
	}
	var sites []delta
	for _, s := range c.Sites {
		if d := s.Cycles - baseSites[s.Site]; d != 0 {
			sites = append(sites, delta{s.Site, d})
		}
	}
	desc := func(ds []delta) []delta {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].d != ds[j].d {
				return ds[i].d > ds[j].d
			}
			return ds[i].name < ds[j].name
		})
		if topN > 0 && len(ds) > topN {
			ds = ds[:topN]
		}
		return ds
	}
	render := func(ds []delta) string {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmt.Sprintf("%s %+.1f", d.name, d.d)
		}
		out := ""
		for i, p := range parts {
			if i > 0 {
				out += ", "
			}
			out += p
		}
		return out
	}
	cats, sites = desc(cats), desc(sites)
	if len(cats) == 0 && len(sites) == 0 {
		return ""
	}
	out := "blame:"
	if len(cats) > 0 {
		out += " categories [" + render(cats) + "]"
	}
	if len(sites) > 0 {
		out += " sites [" + render(sites) + "]"
	}
	return out
}
