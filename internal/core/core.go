// Package core is the public facade of the Pythia reproduction: compile
// a C-subset program (or take a prebuilt IR module), apply one of the
// defense schemes, and run it on the simulated machine with attacker-
// controlled input.
//
// Typical use:
//
//	prog, err := core.Build("demo", src, core.SchemePythia)
//	res, err := prog.Run("benign input\n")
//	if res.Fault != nil { /* the defense fired */ }
package core

import (
	"fmt"
	"time"

	"repro/internal/dfi"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/slice"
	"repro/internal/vm"
)

// Scheme re-exports the defense configurations.
type Scheme = harden.Scheme

// The supported schemes.
const (
	SchemeVanilla    = harden.Vanilla
	SchemeCPA        = harden.CPA
	SchemePythia     = harden.Pythia
	SchemeDFI        = harden.DFIScheme
	SchemeStackOnly  = harden.PythiaStackOnly
	SchemeHeapOnly   = harden.PythiaHeapOnly
	SchemeNoRelayout = harden.PythiaNoRelayout
	SchemeFields     = harden.PythiaFields
)

// Schemes lists the four headline configurations in evaluation order.
var Schemes = []Scheme{SchemeVanilla, SchemeCPA, SchemePythia, SchemeDFI}

// ParseScheme resolves a headline scheme by its String() name, the
// spelling every CLI flag and the service API accept.
func ParseScheme(name string) (Scheme, bool) {
	for _, s := range Schemes {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Protection describes what a scheme instrumented.
type Protection struct {
	Scheme Scheme
	Harden *harden.Report // nil for DFI
	DFI    *dfi.Report    // nil for the PA schemes
}

// PAInstrs returns the static count of defense instructions inserted.
func (p *Protection) PAInstrs() int {
	switch {
	case p.Harden != nil:
		return p.Harden.PAInstrs
	case p.DFI != nil:
		return p.DFI.SetDefs + p.DFI.ChkDefs
	}
	return 0
}

// Program is a compiled, protected module ready to run.
type Program struct {
	Mod        *ir.Module
	Protection *Protection
	Seed       int64

	// MemoHit is set by Pipeline.Build when the harden stage was served
	// from the pipeline's in-process memo.
	MemoHit bool
}

// CompileC compiles MiniC source to an optimized (mem2reg + folding) IR
// module — the paper's "-O3 + mem2reg" preprocessing.
func CompileC(name, src string) (*ir.Module, error) {
	defer obs.TraceSpan("compile "+name, "compile")()
	mod, err := minic.Compile(name, src)
	if err != nil {
		return nil, err
	}
	irpass.Optimize(mod)
	return mod, nil
}

// Protect applies the scheme's instrumentation to mod in place.
func Protect(mod *ir.Module, scheme Scheme) (*Protection, error) {
	defer obs.TraceSpan(fmt.Sprintf("harden %v", scheme), "harden")()
	if scheme == SchemeDFI {
		r, err := dfi.Apply(mod)
		if err != nil {
			return nil, err
		}
		// DFI's SETDEF/CHKDEF checks get the same stable site ids the
		// harden passes assign, so coverage telemetry spans all schemes.
		harden.AssignSites(mod)
		return &Protection{Scheme: scheme, DFI: r}, nil
	}
	r, err := harden.Apply(mod, scheme)
	if err != nil {
		return nil, err
	}
	return &Protection{Scheme: scheme, Harden: r}, nil
}

// Build compiles src and protects it with the scheme, pulling both
// stages through the process-wide pipeline: each source's vanilla
// compile and each (source, scheme) instrumentation is paid once per
// process, and each call returns a freshly decoded module.
func Build(name, src string, scheme Scheme) (*Program, error) {
	return defaultPipeline.Build(name, src, scheme)
}

// NewMachine instantiates a fresh VM for the program.
func (p *Program) NewMachine() *vm.Machine {
	return vm.New(p.Mod, vm.Config{Seed: p.Seed})
}

// Run executes main() with the given stdin contents on a fresh machine.
func (p *Program) Run(stdin string, args ...uint64) (*vm.Result, error) {
	end := obs.TraceSpan(fmt.Sprintf("run %s [%v]", p.Mod.Name, p.Protection.Scheme), "vm")
	start := time.Now()
	m := p.NewMachine()
	m.Stdin.SetInput([]byte(stdin))
	res, err := m.Run("main", args...)
	obs.ObserveMS("vm.run.ms", time.Since(start))
	end()
	if res != nil && res.Fault != nil {
		obs.Point("fault: "+res.Fault.Kind.String(), "vm", map[string]string{
			"func": res.Fault.Func, "instr": res.Fault.Instr,
		})
	}
	return res, err
}

// Analyze runs the vulnerability analysis without instrumenting.
func Analyze(mod *ir.Module) *slice.VulnReport {
	return slice.AnalyzeVulnerabilities(mod)
}

// BinarySize reports the estimated code size of the module in bytes.
func BinarySize(mod *ir.Module) int64 { return perf.BinarySize(mod) }
