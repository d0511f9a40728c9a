package perf

// Per-IR-site cycle attribution: the hot-site profiler behind
// `pythia-bench -hotsites`. Each executed instruction's dynamic count
// and modeled cycle cost is accumulated under its (module, function,
// instruction) key, aggregated across every machine run while an
// observability session is active. The module name keeps programs
// apart whose functions render an identical instruction.

import (
	"sort"
	"sync"
)

// SiteKey identifies one static IR site by rendered text.
type SiteKey struct {
	Module string `json:"module"`
	Func   string `json:"func"`
	Instr  string `json:"instr"`
}

// SiteStat is the accumulated dynamic profile of one site.
type SiteStat struct {
	Count  int64   `json:"count"`
	Cycles float64 `json:"cycles"`
}

// SiteProf aggregates site profiles from concurrently running machines.
type SiteProf struct {
	mu    sync.Mutex
	sites map[SiteKey]*SiteStat
}

// NewSiteProf returns an empty profiler.
func NewSiteProf() *SiteProf {
	return &SiteProf{sites: make(map[SiteKey]*SiteStat)}
}

// Add folds count executions worth cycles into the site's stat.
func (p *SiteProf) Add(k SiteKey, count int64, cycles float64) {
	p.mu.Lock()
	st, ok := p.sites[k]
	if !ok {
		st = &SiteStat{}
		p.sites[k] = st
	}
	st.Count += count
	st.Cycles += cycles
	p.mu.Unlock()
}

// Get returns a copy of the site's accumulated stat, and whether the
// site has been recorded at all.
func (p *SiteProf) Get(k SiteKey) (SiteStat, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.sites[k]
	if !ok {
		return SiteStat{}, false
	}
	return *st, true
}

// Len returns the number of distinct sites recorded.
func (p *SiteProf) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sites)
}

// HotSite is one row of the top-N report.
type HotSite struct {
	SiteKey
	SiteStat
}

// Top returns the n most cycle-expensive sites, descending by cycles
// with a deterministic (module, func, instr) tie-break.
func (p *SiteProf) Top(n int) []HotSite {
	p.mu.Lock()
	all := make([]HotSite, 0, len(p.sites))
	for k, st := range p.sites {
		all = append(all, HotSite{SiteKey: k, SiteStat: *st})
	}
	p.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Cycles != all[j].Cycles {
			return all[i].Cycles > all[j].Cycles
		}
		if all[i].Module != all[j].Module {
			return all[i].Module < all[j].Module
		}
		if all[i].Func != all[j].Func {
			return all[i].Func < all[j].Func
		}
		return all[i].Instr < all[j].Instr
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
