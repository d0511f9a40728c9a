package workload_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/workload"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := workload.Profiles()
	if len(ps) != 16 {
		t.Fatalf("%d profiles, want 16 (15 SPEC-like + nginx)", len(ps))
	}
	names := make(map[string]bool)
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.Workers <= 0 || p.HotRounds <= 0 || p.OuterTrip <= 0 || p.InnerTrip <= 0 {
			t.Fatalf("%s: degenerate hot shape %+v", p.Name, p)
		}
		if p.ColdHostileBr+p.ColdDeepBr > p.ColdBranches {
			t.Fatalf("%s: cold branch classes exceed the population", p.Name)
		}
	}
	if !names["nginx"] || !names["519.lbm_r"] || !names["502.gcc_r"] {
		t.Fatal("headline profiles missing")
	}
}

func TestProfileLookups(t *testing.T) {
	if workload.ProfileByName("nope") != nil {
		t.Fatal("unknown profile must return nil")
	}
	if workload.ProfileByName("519.lbm_r") == nil {
		t.Fatal("lbm lookup failed")
	}
	if workload.NginxProfile().Name != "nginx" {
		t.Fatal("NginxProfile misnamed")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	p := workload.ProfileByName("502.gcc_r")
	if workload.Generate(p) != workload.Generate(p) {
		t.Fatal("generation must be deterministic")
	}
	if workload.Stdin(p) != workload.Stdin(p) {
		t.Fatal("stdin must be deterministic")
	}
}

func TestGeneratedSourceStructure(t *testing.T) {
	p := workload.NginxProfile()
	src := workload.Generate(&p)
	for _, want := range []string{"ngx_cpymem", "worker0", "cold_io", "int main()"} {
		if !strings.Contains(src, want) {
			t.Fatalf("nginx source missing %q", want)
		}
	}
	lbm := workload.Generate(workload.ProfileByName("519.lbm_r"))
	if strings.Contains(lbm, "ngx_") {
		t.Fatal("lbm must not use wrappers")
	}
	if !strings.Contains(lbm, "params[0] + side[3]") {
		t.Fatal("DFI-friendly medium loop missing for lbm")
	}
}

// TestAllProfilesRunCleanUnderAllSchemes is the workload soundness
// gate: every benchmark must compile, instrument, and run without any
// fault under every scheme, and the hardened runs must compute the same
// result as vanilla.
func TestAllProfilesRunCleanUnderAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is ~1 minute")
	}
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			base, err := workload.Run(&p, core.SchemeVanilla)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []core.Scheme{core.SchemeCPA, core.SchemePythia, core.SchemeDFI} {
				r, err := workload.Run(&p, s)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if r.Ret != base.Ret {
					t.Fatalf("%v changed the computation: ret %d != %d", s, int64(r.Ret), int64(base.Ret))
				}
				if r.Counters.Cycles <= base.Counters.Cycles {
					t.Fatalf("%v reported no overhead — instrumentation missing?", s)
				}
			}
		})
	}
}

func TestQuickSubsetRepresentatives(t *testing.T) {
	p := workload.ProfileByName("519.lbm_r")
	r, err := workload.Run(p, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if r.Protection == nil || r.Protection.Harden == nil {
		t.Fatal("protection report missing")
	}
	if r.Counters.PAInstrs == 0 {
		t.Fatal("Pythia run executed no PA instructions")
	}
	if r.BinarySize == 0 {
		t.Fatal("binary size not measured")
	}
}

func TestBuildProducesAnalyzableModule(t *testing.T) {
	p := workload.ProfileByName("505.mcf_r")
	prog, err := workload.Build(p, core.SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(prog.Mod); err != nil {
		t.Fatal(err)
	}
	vr := core.Analyze(prog.Mod)
	if len(vr.Branches) == 0 || vr.TotalRoots == 0 {
		t.Fatal("analysis found nothing")
	}
	if vr.Distribution().Total == 0 {
		t.Fatal("no input channels in the workload")
	}
}

// TestGeneratedBranchClasses guards the Fig. 7(b) machinery: the
// generated source must contain exactly the branch-class populations the
// profile requests (per worker and in cold code).
func TestGeneratedBranchClasses(t *testing.T) {
	p := workload.ProfileByName("502.gcc_r")
	src := workload.Generate(p)
	count := func(sub string) int { return strings.Count(src, sub) }

	// Deep-chain branches: DeepChainBr per worker plus ColdDeepBr per
	// cold function (cold_io and its never-called twin), plus the
	// definition of chain1 itself.
	wantDeep := p.Workers*p.DeepChainBr + 2*p.ColdDeepBr + 1
	if got := count("chain1("); got != wantDeep {
		t.Fatalf("deep-chain uses = %d, want %d", got, wantDeep)
	}
	// Struct-field branches appear once per worker knob.
	if p.TaintedStructBr > 0 {
		if got := count("r.key > acc"); got != p.Workers {
			t.Fatalf("struct branches = %d, want %d", got, p.Workers)
		}
	}
	// The hot in-loop channels must use distinct destination buffers.
	for k := 1; k <= p.ICInLoop; k++ {
		if count(fmt.Sprintf("loopbuf%d", k)) == 0 {
			t.Fatalf("in-loop channel buffer loopbuf%d missing", k)
		}
	}
	// The never-invoked twin exists but main must not call it.
	if count("long cold_spare(") != 1 {
		t.Fatal("cold_spare missing")
	}
	if count("cold_spare(") != 1 {
		t.Fatal("cold_spare must never be called")
	}
}

// TestStdinCoversWorkerRounds: each worker invocation consumes one line;
// the generated stdin must provide them all so no round reads empty.
func TestStdinCoversWorkerRounds(t *testing.T) {
	p := workload.ProfileByName("505.mcf_r")
	lines := strings.Count(workload.Stdin(p), "\n")
	need := p.HotRounds*p.Workers + p.ScanICs + p.GetICs
	if lines < need {
		t.Fatalf("stdin has %d lines, need >= %d", lines, need)
	}
}
