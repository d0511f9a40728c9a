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
// Both passes read the vulnerability analysis of package slice, as the
// pointer-free slice.Facts of the vanilla module, and leave a Report of
// what they instrumented (the Fig. 6 statistics).
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

// Analyzes reports whether the scheme's passes read the vulnerability
// analysis: every scheme this package applies except Vanilla.
func (s Scheme) Analyzes() bool {
	return s > Vanilla && s <= PythiaFields && s != DFIScheme
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

// ApplyFacts runs the selected scheme's instrumentation on mod in place
// and returns the report. facts is the analysis of mod itself or of the
// bytes mod was decoded from; schemes that do not analyze ignore it.
// The module must not already be instrumented.
func ApplyFacts(mod *ir.Module, scheme Scheme, facts *slice.Facts) (*Report, error) {
	rep := &Report{Scheme: scheme}
	if scheme == Vanilla {
		return rep, nil
	}
	if !scheme.Analyzes() {
		return nil, fmt.Errorf("harden: scheme %v not applied by this package", scheme)
	}
	vb, err := facts.Bind(mod)
	if err != nil {
		return nil, fmt.Errorf("harden: %v: %w", scheme, err)
	}
	switch scheme {
	case CPA:
		applyCPA(mod, vb, rep)
	case Pythia:
		applyPythia(mod, vb, rep, pythiaConfig{Stack: true, Heap: true, Relayout: true})
	case PythiaStackOnly:
		applyPythia(mod, vb, rep, pythiaConfig{Stack: true, Relayout: true})
	case PythiaHeapOnly:
		applyPythia(mod, vb, rep, pythiaConfig{Heap: true})
	case PythiaNoRelayout:
		applyPythia(mod, vb, rep, pythiaConfig{Stack: true, Heap: true})
	case PythiaFields:
		applyFieldCanaries(mod, vb, rep)
		applyPythia(mod, vb, rep, pythiaConfig{Stack: true, Heap: true, Relayout: true})
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

// isScalar reports whether t is a scalar (int or pointer) type.
func isScalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }

// rootsWrittenBy returns the vulnerable roots an input-channel call may
// write (destination arguments, direct or via aliases).
func rootsWrittenBy(vb *slice.Binding, site inputchan.CallSite, vuln map[ir.Value]bool) []ir.Value {
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
		for _, root := range vb.PointsTo(arg) {
			add(root)
		}
	}
	return out
}
