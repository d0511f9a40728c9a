package fuzz

// The differential oracle. Each target's four programs are built once
// per run and shared by every worker: no code writes a module after the
// pipeline builds it, so machines built from one module may run
// concurrently. Each worker keeps only a reusable coverage map. An
// evaluation runs the input under all four schemes on fresh machines,
// harvests branch coverage from the vanilla run (the schemes insert no
// user-visible branches, so vanilla coverage is the cheapest complete
// signal), and classifies each defense verdict against the vanilla
// ground truth.

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
)

// fuzzFuel is the per-run fuel budget. Two orders of magnitude above
// the longest corpus case, two below vm.DefaultFuel, so a mutant that
// provokes a runaway loop costs milliseconds, not seconds.
const fuzzFuel = int64(2_000_000)

// schemes is the oracle's scheme order: index 0 is the vanilla ground
// truth, the rest are the defenses judged against it.
var schemes = core.Schemes

// verdict is one scheme's judgement of one input. hang marks an
// out-of-fuel run, which is excluded from finding classification: the
// defenses execute strictly more instructions than vanilla, so a
// near-budget input can time out under one scheme only without any
// semantic divergence.
type verdict struct {
	v    attack.Verdict
	hang bool
}

func (w verdict) String() string {
	if w.hang {
		return "hang"
	}
	return w.v.String()
}

// evalOut is the oracle's answer for one (target, input) pair.
type evalOut struct {
	// input is the evaluated input (same backing array the caller gave).
	input []byte
	// verdicts is indexed like schemes.
	verdicts [4]verdict
	// edges/digest describe the vanilla run's branch coverage.
	edges  int
	hits   []int32
	digest uint64
}

// finding classes, in triage-severity order.
const (
	classBypass   = "bypass"
	classMissed   = "missed"
	classFalsePos = "false-positive"
	classDiverge  = "divergence"
)

// classifyPair judges one defense verdict against the vanilla ground
// truth; "" means agreement (no finding). Pairs with a hang on either
// side never classify.
func classifyPair(vanilla, defense verdict) string {
	if vanilla.hang || defense.hang {
		return ""
	}
	g, d := vanilla.v, defense.v
	switch {
	case g == attack.VerdictBent && d == attack.VerdictBent:
		return classBypass
	case g == attack.VerdictBent && d == attack.VerdictClean:
		return classMissed
	case g == attack.VerdictClean && d == attack.VerdictDetected:
		return classFalsePos
	case g == attack.VerdictClean && (d == attack.VerdictBent || d == attack.VerdictCrashed):
		return classDiverge
	case g == attack.VerdictCrashed && d == attack.VerdictBent:
		return classDiverge
	}
	return ""
}

// buildPipeline is the compile/harden pipeline every program build in
// this package flows through. It defaults to the process-wide pipeline
// and is swapped at most once, at startup, by UsePipeline.
var buildPipeline = core.DefaultPipeline()

// UsePipeline routes all program builds — each run's program tables and
// the -repro matrix — through pl (e.g. one opened over a -cache-dir).
// Call before Run/Replay; the pipeline is read without synchronization.
func UsePipeline(pl *core.Pipeline) { buildPipeline = pl }

// programs is one target's program under every scheme, indexed like
// schemes.
type programs [4]*core.Program

// buildPrograms builds t under every scheme.
func buildPrograms(t *Target) (*programs, error) {
	var ps programs
	for i, s := range schemes {
		p, err := buildPipeline.Build(t.Name, t.Source, s)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return &ps, nil
}

// run executes input on a fresh machine for the program. cov, when
// non-nil, receives the run's branch coverage. flight arms the flight
// recorder (triage re-runs only; the hot loop runs disarmed).
func runInput(p *core.Program, input []byte, cov *vm.Coverage, flight int) (*vm.Result, error) {
	m := vm.New(p.Mod, vm.Config{Seed: p.Seed, Fuel: fuzzFuel, Cover: cov, Flight: flight})
	m.Stdin.SetInput(input)
	return m.Run("main")
}

// classifyRun maps a run result to a verdict, folding resource-budget
// exhaustion (fuel, page quota) into the hang marker: schemes consume
// both asymmetrically, so treating either as a crash would flood the
// differential oracle with budget artifacts.
func classifyRun(res *vm.Result) verdict {
	if res.Fault != nil && (res.Fault.Kind == vm.FaultOOF || res.Fault.Kind == vm.FaultOOM) {
		return verdict{hang: true}
	}
	return verdict{v: attack.Classify(res)}
}

// eval runs input under every scheme and reports verdicts + coverage.
// cov is the calling worker's coverage map, reset for the vanilla run.
func (ps *programs) eval(input []byte, cov *vm.Coverage) (*evalOut, error) {
	out := &evalOut{input: input}
	for i, p := range ps {
		var c *vm.Coverage
		if i == 0 {
			cov.Reset()
			c = cov
		}
		res, err := runInput(p, input, c, 0)
		if err != nil {
			return nil, fmt.Errorf("fuzz: run %s/%v: %w", p.Mod.Name, schemes[i], err)
		}
		out.verdicts[i] = classifyRun(res)
	}
	out.edges = cov.Edges()
	out.hits = append([]int32(nil), cov.Hits(nil)...)
	out.digest = cov.Digest()
	return out, nil
}

// replay re-runs input under scheme index i with the flight recorder
// armed — how triage and Replay attach forensics. It returns the
// rendered fault report and the detecting check's stable site id, both
// empty when the run raises no fault.
func (ps *programs) replay(i int, input []byte) (string, string) {
	res, err := runInput(ps[i], input, nil, obs.DefaultFlightWindow)
	if err != nil || res.Fault == nil || res.Fault.Forensics == nil {
		return "", ""
	}
	res.Fault.Forensics.Scheme = schemes[i].String()
	var b strings.Builder
	res.Fault.Forensics.Render(&b, "  ")
	return b.String(), res.Fault.Forensics.Site
}
