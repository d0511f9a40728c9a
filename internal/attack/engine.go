package attack

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Verdict classifies one attacked run.
type Verdict int

// Verdicts.
const (
	// VerdictClean: the run finished on the normal path.
	VerdictClean Verdict = iota
	// VerdictBent: the attack succeeded — control flow took the
	// privileged path.
	VerdictBent
	// VerdictDetected: a defense mechanism faulted before the bend.
	VerdictDetected
	// VerdictCrashed: the program crashed for an unrelated reason
	// (plain segv in the unprotected binary counts here).
	VerdictCrashed
)

var verdictNames = [...]string{"clean", "bent", "detected", "crashed"}

func (v Verdict) String() string {
	if v < 0 || int(v) >= len(verdictNames) {
		return "?"
	}
	return verdictNames[v]
}

// Outcome is the result of attacking one case under one scheme.
type Outcome struct {
	Case   string
	Scheme core.Scheme
	Benign Verdict // must be VerdictClean for a sound defense
	Attack Verdict
	Fault  *vm.Fault // the detecting fault, when Attack == VerdictDetected
	PAUsed int64     // dynamic PA instructions during the attacked run
}

// Run builds the case under the scheme and runs benign + malicious
// inputs on fresh machines. Every machine is armed with a fault flight
// recorder, so a detected attack's Fault carries a Forensics report.
func Run(c *Case, scheme core.Scheme) (*Outcome, error) {
	return RunWith(core.DefaultPipeline(), c, scheme)
}

// RunWith is Run through an explicit build pipeline, so a harness with
// a persistent cache (pythia-bench -cache-dir) shares compile/harden
// artifacts with the attack matrix too.
func RunWith(pl *core.Pipeline, c *Case, scheme core.Scheme) (*Outcome, error) {
	defer obs.TraceSpan(fmt.Sprintf("attack %s [%v]", c.Name, scheme), "attack")()
	out := &Outcome{Case: c.Name, Scheme: scheme}

	prog, err := pl.Build(c.Name, c.Source, scheme)
	if err != nil {
		return nil, fmt.Errorf("attack: build %s/%v: %w", c.Name, scheme, err)
	}
	bres, err := runArmed(prog, c.Benign)
	if err != nil {
		return nil, err
	}
	out.Benign = Classify(bres)

	ares, err := runArmed(prog, c.Malicious)
	if err != nil {
		return nil, err
	}
	out.Attack = Classify(ares)
	if out.Attack == VerdictDetected {
		out.Fault = ares.Fault
		if out.Fault.Forensics != nil {
			out.Fault.Forensics.Scheme = fmt.Sprintf("%v", scheme)
		}
	}
	out.PAUsed = ares.Counters.PAInstrs
	// Defense-coverage telemetry: both the benign and the attacked run
	// contribute their per-site tallies under the case's name (no-op
	// unless a session armed a CoverageAgg).
	if agg := obs.CurrentCoverage(); agg != nil {
		ids, n := harden.SiteIDs(prog.Mod), prog.Mod.NumInstrs()
		agg.Record(c.Name, scheme.String(), ids, n, bres.Sites)
		agg.Record(c.Name, scheme.String(), ids, n, ares.Sites)
	}
	return out, nil
}

// runArmed executes main() on a fresh machine with the flight recorder
// enabled (core.Program.Run builds plain machines).
func runArmed(p *core.Program, stdin string) (*vm.Result, error) {
	start := time.Now()
	m := vm.New(p.Mod, vm.Config{Seed: p.Seed, Flight: obs.DefaultFlightWindow})
	m.Stdin.SetInput([]byte(stdin))
	res, err := m.Run("main")
	obs.ObserveMS("vm.run.ms", time.Since(start))
	return res, err
}

// Classify maps a run result to a verdict — the differential oracle
// shared with the fuzzer (internal/fuzz): a hardening fault is a
// detection, any other fault a crash, and a fault-free run is bent or
// clean by the Bent convention.
func Classify(res *vm.Result) Verdict {
	if res.Fault != nil {
		switch res.Fault.Kind {
		case vm.FaultPAC, vm.FaultCanary, vm.FaultDFI:
			return VerdictDetected
		default:
			return VerdictCrashed
		}
	}
	if Bent(res.Stdout, res.Ret) {
		return VerdictBent
	}
	return VerdictClean
}
