// Package harden implements the paper's defense passes over the IR:
//
//   - CPA (Algorithm 2): the conservative baseline that seals every
//     (unrefined) vulnerable variable with ARM-PA — scalars become
//     [value|PAC] pairs checked at every load, aggregates carry a pacga
//     object MAC verified before reads and refreshed after legitimate
//     writes.
//   - Pythia (Algorithms 3 & 4): the performance-aware scheme — stack
//     re-layout with PA-signed canaries for vulnerable stack variables
//     (re-randomized before input channels), heap sectioning via
//     secure_malloc for vulnerable heap objects, and sealing of the
//     pointer scalars that reference them.
//
// Both passes consume the vulnerability analysis of package slice and
// leave a Report of what they instrumented (the Fig. 6 statistics).
package harden

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/slice"
)

// Scheme selects a defense configuration.
type Scheme int

// The evaluated configurations.
const (
	Vanilla Scheme = iota
	CPA
	Pythia
	DFIScheme

	// Ablation variants (§4.3 design choices).
	PythiaStackOnly  // stack re-layout + canaries, no heap sectioning
	PythiaHeapOnly   // heap sectioning only, no canaries
	PythiaNoRelayout // canaries without re-ordering vulnerable slots

	// PythiaFields adds intra-struct field canaries on top of the full
	// scheme — the §6.4 future-work extension that detects overflows
	// *within* an object.
	PythiaFields
)

var schemeNames = [...]string{"vanilla", "cpa", "pythia", "dfi", "pythia-stack-only", "pythia-heap-only", "pythia-no-relayout", "pythia-fields"}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "?"
	}
	return schemeNames[s]
}

// Report summarizes one pass application.
type Report struct {
	Scheme Scheme

	// Static instrumentation counts.
	PAInstrs      int // pac/seal/check/canary instructions inserted
	SealedScalars int
	SealedObjects int
	Canaries      int
	HeapRelocated int // malloc sites rewritten to secure_malloc
	DFIChecks     int
}

// Apply runs the selected scheme's instrumentation on mod in place and
// returns the report. The module must not already be instrumented.
// Vanilla instruments nothing and so analyzes nothing.
func Apply(mod *ir.Module, scheme Scheme) (*Report, error) {
	rep := &Report{Scheme: scheme}
	if scheme == Vanilla {
		return rep, nil
	}
	vr := slice.AnalyzeVulnerabilities(mod)
	switch scheme {
	case CPA:
		applyCPA(mod, vr, rep)
	case Pythia:
		applyPythia(mod, vr, rep, pythiaConfig{Stack: true, Heap: true, Relayout: true})
	case PythiaStackOnly:
		applyPythia(mod, vr, rep, pythiaConfig{Stack: true, Relayout: true})
	case PythiaHeapOnly:
		applyPythia(mod, vr, rep, pythiaConfig{Heap: true})
	case PythiaNoRelayout:
		applyPythia(mod, vr, rep, pythiaConfig{Stack: true, Heap: true})
	case PythiaFields:
		applyFieldCanaries(mod, vr, rep)
		applyPythia(mod, vr, rep, pythiaConfig{Stack: true, Heap: true, Relayout: true})
	default:
		return nil, fmt.Errorf("harden: scheme %v not applied by this package", scheme)
	}
	for _, f := range mod.Defined() {
		f.Renumber()
	}
	AssignSites(mod)
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("harden: %v produced invalid IR: %w", scheme, err)
	}
	return rep, nil
}

// markPass tags an inserted instruction with its originating pass.
func markPass(in *ir.Instr, pass string) *ir.Instr {
	in.SetMeta("pass", pass)
	return in
}

// isScalar reports whether t is a scalar (int or pointer) type.
func isScalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }

// rootsWrittenBy returns the vulnerable roots an input-channel call may
// write (destination arguments, direct or via aliases).
func rootsWrittenBy(a *slice.Analysis, site inputchan.CallSite, vuln map[ir.Value]bool) []ir.Value {
	var out []ir.Value
	seen := make(map[ir.Value]bool)
	add := func(v ir.Value) {
		if v != nil && vuln[v] && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i, arg := range site.Call.Args {
		if !inputchan.WritesArg(site.Call.Callee, i) {
			continue
		}
		add(dataflow.MemRoot(arg))
		for _, obj := range a.AA.PointsTo(arg) {
			switch {
			case obj.Alloca != nil:
				add(obj.Alloca)
			case obj.Global != nil:
				add(obj.Global)
			case obj.Heap != nil:
				add(obj.Heap)
			}
		}
	}
	return out
}
