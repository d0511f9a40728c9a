package bench

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/pa"
	"repro/internal/report"
	"repro/internal/slice"
	"repro/internal/workload"
)

// Census is what the analysis-based tables print of one profile's
// vulnerability analysis: counts, ratios, secured verdicts and summed
// slice distances. It holds no pointer into a module or an analysis,
// so the Runner keeps it for the whole sweep instead of the report.
type Census struct {
	Channels inputchan.Distribution // Fig. 5(b) and the nginx census

	TotalRoots, CPAVars, PythiaVars int // Fig. 6(a)
	Direct, Indirect, Unaffected    int // branch classes

	PtrShare float64 // Fig. 7(a): mean pointer share of the branches' ground slices
	Instrs   int     // the module's instruction count

	SecuredDFI, SecuredPythia int // Fig. 7(b)

	// §6.2: the IC, DFI and Pythia distances, each summed in branch
	// order over the Attackable branches.
	ICDist, DFIDist, PythiaDist float64
	Attackable                  int

	Bounds harden.Bounds // Eq. 1 and Eq. 5
}

// Branches counts the module's conditional branches.
func (c *Census) Branches() int { return c.Direct + c.Indirect + c.Unaffected }

// newCensus reads off vr everything the tables print.
func newCensus(vr *slice.VulnReport) *Census {
	a := vr.Analysis
	c := &Census{
		Channels:   vr.Distribution(),
		TotalRoots: vr.TotalRoots,
		CPAVars:    len(vr.CPAVars),
		PythiaVars: len(vr.PythiaVars),
		Instrs:     a.Mod.NumInstrs(),
		Bounds:     harden.EstimateBounds(vr),
	}
	sliced := 0
	for _, b := range vr.Branches {
		switch b.Class {
		case slice.BranchDirect:
			c.Direct++
		case slice.BranchIndirect:
			c.Indirect++
		default:
			c.Unaffected++
		}
		if tot := len(b.Ground.Values); tot > 0 {
			c.PtrShare += 100 * float64(b.Ground.PointerVars) / float64(tot)
			sliced++
		}
		if a.SecuredBy(b, slice.ModeDFI) {
			c.SecuredDFI++
		}
		if a.SecuredBy(b, slice.ModeFull) {
			c.SecuredPythia++
		}
		if b.Class != slice.BranchUnaffected && len(b.Ground.ICs) > 0 {
			c.ICDist += icDistance(b)
			c.DFIDist += float64(a.BranchDecomposition(b.Branch, slice.ModeDFI).Distance())
			c.PythiaDist += float64(a.BranchDecomposition(b.Branch, slice.ModeFull).Distance())
			c.Attackable++
		}
	}
	if sliced > 0 {
		c.PtrShare /= float64(sliced)
	}
	return c
}

// Fig5bInputChannels regenerates Fig. 5(b): the distribution of static
// input-channel call sites per category.
func Fig5bInputChannels(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig5b",
		Title:   "Input-channel call sites by category",
		Columns: []string{"benchmark", "total", "print%", "move/copy%", "scan%", "get%", "put%", "map%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	grand := inputchan.Distribution{ByKind: make(map[ir.ChannelKind]int)}
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		d := c.Channels
		t.AddRow(p.Name, d.Total,
			d.Percent(ir.KindPrint), d.Percent(ir.KindMoveCopy), d.Percent(ir.KindScan),
			d.Percent(ir.KindGet), d.Percent(ir.KindPut), d.Percent(ir.KindMap))
		grand.Total += d.Total
		for k, n := range d.ByKind {
			grand.ByKind[k] += n
		}
	}
	t.AddNote("all benchmarks: %d sites — print %.1f%%, move/copy %.1f%%, rest %.1f%%",
		grand.Total, grand.Percent(ir.KindPrint), grand.Percent(ir.KindMoveCopy),
		100-grand.Percent(ir.KindPrint)-grand.Percent(ir.KindMoveCopy))
	t.AddNote("paper: 25326 sites — print 31.5%%, move/copy 65.9%%, remaining categories 2.6%% (our corpus is ~1/10 scale)")
	return t, nil
}

// Fig6aVulnerableVars regenerates Fig. 6(a): how much the input-channel
// refinement shrinks the vulnerable-variable set, plus the branch
// classification census.
func Fig6aVulnerableVars(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig6a",
		Title:   "Vulnerable variables and branch classes",
		Columns: []string{"benchmark", "roots", "cpa-vuln%", "pythia-vuln%", "reduction", "direct%", "indirect%", "unaffected%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var totRoots, totCPA, totPy, totBr, totDir, totInd, totUn int
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		nb := c.Branches()
		red := "-"
		if c.PythiaVars > 0 {
			red = report.Ratio(float64(c.CPAVars) / float64(c.PythiaVars))
		}
		t.AddRow(p.Name, c.TotalRoots,
			pct(c.CPAVars, c.TotalRoots), pct(c.PythiaVars, c.TotalRoots), red,
			pct(c.Direct, nb), pct(c.Indirect, nb), pct(c.Unaffected, nb))
		totRoots += c.TotalRoots
		totCPA += c.CPAVars
		totPy += c.PythiaVars
		totBr += nb
		totDir += c.Direct
		totInd += c.Indirect
		totUn += c.Unaffected
	}
	t.AddNote("all benchmarks: CPA marks %.1f%% of roots, Pythia %.1f%% (%.2fx reduction); branches %.2f%% direct / %.1f%% indirect / %.1f%% unaffected",
		100*float64(totCPA)/float64(totRoots), 100*float64(totPy)/float64(totRoots),
		float64(totCPA)/float64(max(totPy, 1)), 100*float64(totDir)/float64(totBr),
		100*float64(totInd)/float64(totBr), 100*float64(totUn)/float64(totBr))
	t.AddNote("paper: CPA ≈29%% of variables, Pythia 4.5x fewer (5.1%% marked); ~74%% branches unaffected, 1.26%% direct, 25.1%% indirect")
	return t, nil
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Fig6bPAInstructions regenerates Fig. 6(b): static and dynamic PA
// instruction counts under both schemes.
func Fig6bPAInstructions(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig6b",
		Title:   "ARM-PA instructions: static inserted / dynamic executed",
		Columns: []string{"benchmark", "cpa-static", "pythia-static", "reduction", "cpa-dyn-sites%", "pythia-dyn-sites%"},
	}
	profs, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var totC, totP int
	for _, p := range profs {
		p := p
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		cs := rs[core.SchemeCPA].Protection.PAInstrs()
		ps := rs[core.SchemePythia].Protection.PAInstrs()
		// "Practically, in both schemes only ~50% of instrumented PA
		// instructions are executed dynamically" — we report the share
		// of static sites that executed at least once.
		cd := dynSiteShare(rs[core.SchemeCPA])
		pd := dynSiteShare(rs[core.SchemePythia])
		t.AddRow(p.Name, cs, ps, report.Ratio(float64(cs)/float64(max(ps, 1))), cd, pd)
		totC += cs
		totP += ps
	}
	t.AddNote("all benchmarks: CPA %d static PA instructions, Pythia %d (%.2fx reduction; paper: ~5x10^5 vs 4.25x fewer, parest max 59680)",
		totC, totP, float64(totC)/float64(max(totP, 1)))
	return t, nil
}

// dynSiteShare reports the fraction of static hardening instructions
// that executed at least once — benchmarks carry instrumented code that
// never runs (unused configuration paths), which is why the paper sees
// "only ~50% of instrumented PA instructions executed dynamically".
func dynSiteShare(r *workload.RunResult) string {
	if r.StaticSites == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(r.ExecutedSites)/float64(r.StaticSites))
}

// Fig7aPointerBackslice regenerates Fig. 7(a): the pointer share of the
// branch sub-variable sets and the branch density.
func Fig7aPointerBackslice(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig7a",
		Title:   "Pointer share of backward slices / conditional-branch density",
		Columns: []string{"benchmark", "lang", "branches", "ptr-in-backslice%", "branch-density%"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		density := 100 * float64(c.Branches()) / float64(c.Instrs)
		t.AddRow(p.Name, p.Lang, c.Branches(), c.PtrShare, density)
	}
	t.AddNote("paper reports C++ benchmarks (parest, xalancbmk, ...) with the highest pointer shares — the cause of DFI's terminated slices")
	return t, nil
}

// Fig7bBranchSecurity regenerates Fig. 7(b): the percentage of branches
// each technique secures (its backward slice reaches every attacking
// input channel).
func Fig7bBranchSecurity(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig7b",
		Title:   "Branches secured (percent)",
		Columns: []string{"benchmark", "branches", "dfi%", "pythia%", "delta"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var sumD, sumP float64
	var full19, fullDFI int
	n := 0
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		nb := c.Branches()
		d := pct(c.SecuredDFI, nb)
		py := pct(c.SecuredPythia, nb)
		t.AddRow(p.Name, nb, d, py, fmt.Sprintf("%+.2f", py-d))
		sumD += d
		sumP += py
		if py >= 100 {
			full19++
		}
		if d >= 100 {
			fullDFI++
		}
		n++
	}
	t.AddNote("average: DFI %.2f%%, Pythia %.2f%%; Pythia fully secures %d benchmarks, DFI %d", sumD/float64(n), sumP/float64(n), full19, fullDFI)
	t.AddNote("paper: DFI 86.6%% avg vs Pythia 92%%; Pythia 100%% on lbm/mcf/x264, DFI 100%% only on lbm")
	return t, nil
}

// AttackDistance regenerates the §6.2 attack-distance comparison.
func AttackDistance(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "attackdist",
		Title:   "Attack distance (static instructions)",
		Columns: []string{"benchmark", "ic-distance", "dfi-distance", "pythia-distance"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	var sumIC, sumD, sumP float64
	n := 0
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		k := float64(c.Attackable)
		if k == 0 {
			continue
		}
		t.AddRow(p.Name, c.ICDist/k, c.DFIDist/k, c.PythiaDist/k)
		sumIC += c.ICDist / k
		sumD += c.DFIDist / k
		sumP += c.PythiaDist / k
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("bench: attackdist: no profile produced an attackable branch to average over")
	}
	t.AddNote("average: IC %.2f, DFI %.2f, Pythia %.2f   (paper: IC 83.29, DFI 113.95, Pythia 127.35 LLVM instructions)",
		sumIC/float64(n), sumD/float64(n), sumP/float64(n))
	t.AddNote("a branch is protectable only when the technique's distance covers the channel's (Def. 2.4)")
	return t, nil
}

// icDistance measures the instruction span from the nearest attacking
// channel to the branch.
func icDistance(b slice.BranchInfo) float64 {
	best := -1
	for _, ic := range b.Ground.ICs {
		var d int
		if ic.Caller == b.Fn {
			d = b.Branch.ID - ic.Call.ID
			if d < 0 {
				d = ic.Call.ID - b.Branch.ID
			}
		} else {
			// Cross-function channel: span of the slice portions.
			d = b.Ground.Distance()
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

// EqBounds regenerates the analytic instruction-count model of §4.2/§4.4
// and validates it against the actual instrumentation.
func EqBounds(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "eqbounds",
		Title:   "Analytic bounds (Eq. 1 CPA, Eq. 5 Pythia) vs actual static PA count",
		Columns: []string{"benchmark", "B", "v", "v'", "eq1-bound", "cpa-actual", "eq5-bound", "pythia-actual"},
	}
	ps, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p := p
		c, err := cfg.Runner().Analyze(&p)
		if err != nil {
			return nil, err
		}
		b := c.Bounds
		rs, err := cfg.Runner().Schemes(&p, core.SchemeCPA, core.SchemePythia)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, b.Branches, b.VulnCPA, b.StackVuln+b.HeapVuln,
			fmt.Sprintf("%.0f", b.CPABound), rs[core.SchemeCPA].Protection.PAInstrs(),
			fmt.Sprintf("%.0f", b.PythiaBound), rs[core.SchemePythia].Protection.PAInstrs())
	}
	t.AddNote("both bounds must dominate the actual insertion counts; Eq. 5 << Eq. 1 because v' << v (the refinement)")
	return t, nil
}

// BruteForce regenerates the Eq. 6 analysis: the probability of guessing
// a PA canary and the measured behaviour of forged values.
func BruteForce(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "bruteforce",
		Title:   "Canary brute-force model (Eq. 6)",
		Columns: []string{"quantity", "value"},
	}
	pacSpace := float64(uint64(1) << pa.PACBits)
	t.AddRow("PAC width", fmt.Sprintf("%d bits", pa.PACBits))
	t.AddRow("P(single guess)", fmt.Sprintf("1/2^%d = %.3g", pa.PACBits, 1/pacSpace))
	t.AddRow("E[tries] (geometric)", fmt.Sprintf("%.0f", pacSpace))
	for _, k := range []int{1, 4, 16} {
		t.AddRow(fmt.Sprintf("P(success, k=%d canaries)", k), fmt.Sprintf("%.3g", float64(k)/pacSpace))
	}
	// Empirical spot check: forged PACs must fail authentication.
	keys := pa.NewKeySet(7)
	const trials = 200000
	var hits int
	for i := 0; i < trials; i++ {
		forged := (uint64(i)*0x9e3779b97f4a7c15)&pa.PACMask | 0x4000
		if _, ok := pa.Auth(forged, 0x1234, keys.APGA); ok {
			hits++
		}
	}
	t.AddRow(fmt.Sprintf("forged-auth successes in %d trials", trials),
		fmt.Sprintf("%d (expected ≈ %.2f)", hits, trials/pacSpace))
	t.AddNote("paper: 1-in-16M per guess; re-randomization per channel use voids leaked canary values")
	return t, nil
}

// AttackMatrix regenerates the §6.3 motivating-example results over the
// whole corpus and all four schemes.
func AttackMatrix(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "attacks",
		Title:   "Attack corpus: outcome per scheme (benign must be clean)",
		Columns: []string{"case", "kind", "vanilla", "cpa", "pythia", "dfi"},
	}
	pl := cfg.Runner().Pipeline()
	for _, c := range attack.Corpus() {
		c := c
		row := []any{c.Name, c.Kind}
		for _, s := range core.Schemes {
			o, err := attack.RunWith(pl, &c, s)
			if err != nil {
				return nil, err
			}
			cell := o.Attack.String()
			if o.Attack == attack.VerdictDetected && o.Fault != nil {
				cell += "(" + o.Fault.Kind.String() + ")"
			}
			if o.Benign != attack.VerdictClean {
				cell += "!FP"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	t.AddNote("vanilla must bend on every case; CPA/Pythia must detect all; DFI misses the pointer-arithmetic channel (dfi-blindspot)")
	return t, nil
}

// FieldCanary regenerates the §6.4 limitation discussion: an overflow
// confined within one struct object bends standard Pythia (documented
// limitation), while the field-canary extension ("stack canaries must be
// inserted within individual fields ... a focus of our future work")
// detects it.
func FieldCanary(cfg *Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fieldcanary",
		Title:   "Intra-struct overflow vs field-canary extension",
		Columns: []string{"scheme", "benign", "attack outcome"},
	}
	const src = `
struct session { char name[8]; long priv; };
int main() {
	struct session s;
	s.priv = 0;
	gets(s.name);
	if (s.priv != 0) { printf("GRANTED\n"); return 99; }
	printf("normal\n");
	return 0;
}`
	pl := cfg.Runner().Pipeline()
	for _, scheme := range []core.Scheme{core.SchemeVanilla, core.SchemePythia, core.SchemeFields} {
		verdict := func(stdin string) (string, error) {
			prog, err := pl.Build("fieldcanary", src, scheme)
			if err != nil {
				return "", err
			}
			res, err := prog.Run(stdin)
			if err != nil {
				return "", err
			}
			switch {
			case res.Fault != nil:
				return "detected(" + res.Fault.Kind.String() + ")", nil
			case attack.Bent(res.Stdout, res.Ret):
				return "bent", nil
			default:
				return "clean", nil
			}
		}
		benign, err := verdict("bob\n")
		if err != nil {
			return nil, err
		}
		attacked, err := verdict("AAAAAAAAAAAAAAA\n")
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme.String(), benign, attacked)
	}
	t.AddNote("paper §6.4: intra-object overflows evade the frame canaries; per-field canaries (future work) close the gap")
	return t, nil
}
