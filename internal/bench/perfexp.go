package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fig4aRuntimeOverhead regenerates Fig. 4(a): per-benchmark cycle
// overhead of CPA and Pythia over the vanilla build.
func Fig4aRuntimeOverhead(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig4a",
		Title:   "Runtime overhead vs vanilla (percent)",
		Columns: []string{"benchmark", "base-Mcycles", "cpa%", "pythia%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var sumC, sumP float64
	n := 0
	for _, p := range ps {
		p := p
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		base := rs[core.SchemeVanilla]
		c, err := rs[core.SchemeCPA].Overhead(base)
		if err != nil {
			return nil, err
		}
		py, err := rs[core.SchemePythia].Overhead(base)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, fmt.Sprintf("%.3f", base.Counters.Cycles/1e6), c, py)
		sumC += c
		sumP += py
		n++
	}
	t.AddNote("average: CPA %.2f%%, Pythia %.2f%%   (paper: CPA 47.88%%, Pythia 13.07%%; worst CPA 69.8%% and worst Pythia 25.4%% both on 502.gcc_r)", sumC/float64(n), sumP/float64(n))
	return t, nil
}

// Fig4bBinarySize regenerates Fig. 4(b): binary bloat.
func Fig4bBinarySize(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig4b",
		Title:   "Binary size increase vs vanilla (percent)",
		Columns: []string{"benchmark", "base-bytes", "cpa%", "pythia%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var sumC, sumP float64
	n := 0
	for _, p := range ps {
		p := p
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		base := float64(rs[core.SchemeVanilla].BinarySize)
		c := (float64(rs[core.SchemeCPA].BinarySize)/base - 1) * 100
		py := (float64(rs[core.SchemePythia].BinarySize)/base - 1) * 100
		t.AddRow(p.Name, rs[core.SchemeVanilla].BinarySize, c, py)
		sumC += c
		sumP += py
		n++
	}
	t.AddNote("average: CPA %.2f%%, Pythia %.2f%%   (paper: CPA 21.56%% avg, max 33.2%% nginx; Pythia 10.37%% avg, max 17.99%% parest)", sumC/float64(n), sumP/float64(n))
	return t, nil
}

// Fig5aIPC regenerates Fig. 5(a): IPC degradation.
func Fig5aIPC(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig5a",
		Title:   "IPC degradation vs vanilla (percent)",
		Columns: []string{"benchmark", "base-IPC", "cpa%", "pythia%", "llc-miss-cpa", "llc-miss-pythia"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var sumC, sumP float64
	n := 0
	for _, p := range ps {
		p := p
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		base := rs[core.SchemeVanilla]
		deg := func(s core.Scheme) float64 {
			return (1 - rs[s].Counters.IPC()/base.Counters.IPC()) * 100
		}
		missDelta := func(s core.Scheme) string {
			return fmt.Sprintf("%+d", rs[s].Counters.LLCMisses-base.Counters.LLCMisses)
		}
		c, py := deg(core.SchemeCPA), deg(core.SchemePythia)
		t.AddRow(p.Name, fmt.Sprintf("%.2f", base.Counters.IPC()), c, py,
			missDelta(core.SchemeCPA), missDelta(core.SchemePythia))
		sumC += c
		sumP += py
		n++
	}
	t.AddNote("average: CPA %.2f%%, Pythia %.2f%%   (paper: CPA 4.9%% avg with worst 13%% on xalancbmk; Pythia 2.8%%)", sumC/float64(n), sumP/float64(n))
	return t, nil
}

// nginxRounds returns the three serving-loop lengths the case study
// scales over (the paper serves for 3 s / 30 s / 300 s).
func nginxRounds(base workload.Profile) []int {
	return []int{base.HotRounds / 4, base.HotRounds, base.HotRounds * 3}
}

// warmNginx declares the scaled serving-loop runs plus the channel
// census analysis.
func warmNginx(cfg *Config) []Task {
	base := workload.NginxProfile()
	var out []Task
	for _, rounds := range nginxRounds(base) {
		p := base
		p.HotRounds = rounds
		for _, s := range []core.Scheme{core.SchemeVanilla, core.SchemeCPA, core.SchemePythia} {
			out = append(out, Task{Profile: p, Scheme: s})
		}
	}
	return append(out, Task{Profile: base, Analyze: true})
}

// NginxStudy regenerates the §6.3 nginx case study.
func NginxStudy(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "nginx",
		Title:   "Nginx: overheads across serving-loop lengths + channel census",
		Columns: []string{"run", "rounds", "cpa%", "pythia%"},
	}
	base := workload.NginxProfile()
	var sumC, sumP float64
	for i, rounds := range nginxRounds(base) {
		p := base
		p.HotRounds = rounds
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		b := rs[core.SchemeVanilla]
		c, err := rs[core.SchemeCPA].Overhead(b)
		if err != nil {
			return nil, err
		}
		py, err := rs[core.SchemePythia].Overhead(b)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("run-%d", i+1), rounds, c, py)
		sumC += c
		sumP += py
	}
	t.AddNote("average: CPA %.2f%%, Pythia %.2f%%   (paper: CPA 49.13%%, Pythia 20.15%%)", sumC/3, sumP/3)

	// Channel census (paper: 720 channels, 712 move/copy, ngx_ wrappers).
	c, err := cfg.Runner().Analyze(&base)
	if err != nil {
		return nil, err
	}
	d := c.Channels
	t.AddNote("input channels: %d total, %.1f%% move/copy (paper: 720 total, 712 move/copy incl. ngx_ wrappers)",
		d.Total, d.Percent(ir.KindMoveCopy)+d.Percent(ir.KindPut))
	return t, nil
}

// Ablation regenerates the design-choice ablation called out in
// DESIGN.md: each Pythia half on its own.
func Ablation(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "ablation",
		Title:   "Pythia ablation: overhead of each mechanism in isolation",
		Columns: []string{"benchmark", "full%", "stack-only%", "heap-only%", "no-relayout%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p := p
		rs, err := cfg.Runner().Schemes(&p, core.SchemePythia, core.SchemeStackOnly, core.SchemeHeapOnly, core.SchemeNoRelayout)
		if err != nil {
			return nil, err
		}
		base := rs[core.SchemeVanilla]
		cells := []any{p.Name}
		for _, s := range []core.Scheme{core.SchemePythia, core.SchemeStackOnly, core.SchemeHeapOnly, core.SchemeNoRelayout} {
			ov, err := rs[s].Overhead(base)
			if err != nil {
				return nil, err
			}
			cells = append(cells, ov)
		}
		t.AddRow(cells...)
	}
	t.AddNote("stack-only omits heap sectioning; heap-only omits canaries; no-relayout keeps declaration order (weaker containment, same cost)")
	return t, nil
}
