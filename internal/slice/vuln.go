package slice

import (
	"repro/internal/dataflow"
	"repro/internal/inputchan"
	"repro/internal/ir"
)

// Taint is the result of input-channel construction: the forward slice
// of everything the input channels can write.
type Taint struct {
	// Roots are memory objects (allocas/globals/heap sites) an attacker
	// can influence through some channel.
	Roots map[ir.Value]bool
	// Values are tainted SSA values.
	Values map[ir.Value]bool
}

// InputChannelConstruction computes the module-wide forward slice of
// input-channel writes: starting from each channel's destination
// objects, taint propagates through loads, arithmetic, stores, calls and
// returns to a fixpoint (§4.1: "the exact reverse of the branch
// decomposition algorithm").
func (a *Analysis) InputChannelConstruction() *Taint {
	t := &Taint{Roots: make(map[ir.Value]bool), Values: make(map[ir.Value]bool)}

	// Seed: objects written by channels.
	for _, site := range a.Sites {
		for i, arg := range site.Call.Args {
			if !inputchan.WritesArg(site.Call.Callee, i) {
				continue
			}
			if root := dataflow.MemRoot(arg); root != nil {
				t.Roots[root] = true
			}
			for _, obj := range a.AA.PointsTo(arg) {
				if r := objectRoot(obj); r != nil {
					t.Roots[r] = true
				}
			}
		}
		// Scan-style channels also taint their value results (x = atoi).
		if site.Kind == ir.KindScan || site.Kind == ir.KindGet {
			t.Values[site.Call] = true
		}
	}

	// Propagate to fixpoint.
	changed := true
	for changed {
		changed = false
		for _, f := range a.Mod.Defined() {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if a.propagate(t, in) {
						changed = true
					}
				}
			}
		}
	}
	return t
}

// propagate applies one instruction's taint transfer; reports change.
func (a *Analysis) propagate(t *Taint, in *ir.Instr) bool {
	tainted := func(v ir.Value) bool {
		if t.Values[v] || t.Roots[v] {
			return true
		}
		return false
	}
	mark := func(v ir.Value) bool {
		if v == nil || t.Values[v] {
			return false
		}
		t.Values[v] = true
		return true
	}
	switch in.Op {
	case ir.OpLoad:
		root := dataflow.MemRoot(in.Args[0])
		if (root != nil && t.Roots[root]) || tainted(in.Args[0]) {
			return mark(in)
		}
		// Loads through tainted aliases.
		for _, obj := range a.AA.PointsTo(in.Args[0]) {
			if r := objectRoot(obj); r != nil && t.Roots[r] {
				return mark(in)
			}
		}
	case ir.OpStore:
		if !tainted(in.Args[0]) && !tainted(in.Args[1]) {
			return false
		}
		ch := false
		if root := dataflow.MemRoot(in.Args[1]); root != nil && !t.Roots[root] {
			t.Roots[root] = true
			ch = true
		}
		if tainted(in.Args[1]) || tainted(in.Args[0]) {
			// Storing a tainted value, or storing through a tainted
			// pointer (the pointer-misdirection vector of §3), taints
			// whatever the destination may point to.
			for _, obj := range a.AA.PointsTo(in.Args[1]) {
				if r := objectRoot(obj); r != nil && !t.Roots[r] {
					t.Roots[r] = true
					ch = true
				}
			}
		}
		return ch
	case ir.OpCall:
		callee := in.Callee
		if !callee.IsDecl() {
			ch := false
			for i, p := range callee.Params {
				if i < len(in.Args) && tainted(in.Args[i]) && !t.Values[ir.Value(p)] {
					t.Values[p] = true
					ch = true
				}
			}
			return ch
		}
		// Pure helpers propagate taint from arguments to result.
		for _, arg := range in.Args {
			if tainted(arg) {
				return mark(in)
			}
		}
	case ir.OpRet:
		if len(in.Args) == 1 && tainted(in.Args[0]) {
			// Taint flows to every caller's call result.
			ch := false
			for _, call := range a.callersOf[in.Block.Parent] {
				if !t.Values[ir.Value(call)] {
					t.Values[call] = true
					ch = true
				}
			}
			return ch
		}
	case ir.OpPhi:
		for _, e := range in.Incoming {
			if tainted(e.Val) {
				return mark(in)
			}
		}
	default:
		for _, arg := range in.Args {
			if tainted(arg) {
				return mark(in)
			}
		}
	}
	return false
}

// BranchClass classifies how input channels affect one branch (the
// Fig. 6a discussion: ~74 % unaffected, 1.26 % direct, 25.1 % indirect).
type BranchClass int

// Branch classifications.
const (
	BranchUnaffected BranchClass = iota
	BranchDirect
	BranchIndirect
)

func (c BranchClass) String() string {
	switch c {
	case BranchDirect:
		return "direct"
	case BranchIndirect:
		return "indirect"
	default:
		return "unaffected"
	}
}

// VulnReport is the module-level vulnerability analysis both defenses
// consume.
type VulnReport struct {
	Analysis *Analysis
	Taint    *Taint

	// Branches lists every conditional branch with its ground-truth
	// slice and classification.
	Branches []BranchInfo

	// CPAVars is the unrefined vulnerable set (union of all branch
	// sub-variable roots) — what the conservative scheme protects.
	CPAVars map[ir.Value]bool
	// PythiaVars is the refined set: CPAVars ∩ input-channel taint.
	PythiaVars map[ir.Value]bool
	// TotalRoots counts every memory root in the module.
	TotalRoots int
}

// BranchInfo couples one branch with its analyses.
type BranchInfo struct {
	Branch *ir.Instr
	Fn     *ir.Func
	Ground *BranchSlice
	Class  BranchClass
}

// AnalyzeVulnerabilities runs the full pipeline over the module.
func AnalyzeVulnerabilities(mod *ir.Module) *VulnReport {
	a := NewAnalysis(mod)
	taint := a.Taint
	r := &VulnReport{
		Analysis:   a,
		Taint:      taint,
		CPAVars:    make(map[ir.Value]bool),
		PythiaVars: make(map[ir.Value]bool),
	}
	w := a.newWalker()
	for _, f := range mod.Defined() {
		r.TotalRoots += len(f.Allocas())
		for _, br := range f.Branches() {
			g := w.decompose(br, ModeGround)
			info := BranchInfo{Branch: br, Fn: f, Ground: g, Class: classify(g, taint)}
			r.Branches = append(r.Branches, info)
			for root := range g.Roots {
				r.CPAVars[root] = true
				if taint.Roots[root] || taint.Values[root] {
					r.PythiaVars[root] = true
				}
			}
		}
	}
	r.TotalRoots += len(mod.Globals)
	return r
}

// classify determines the branch class: direct when a channel writes a
// root the predicate loads immediately, indirect when a channel appears
// deeper in the slice, unaffected otherwise.
func classify(g *BranchSlice, taint *Taint) BranchClass {
	if len(g.ICs) == 0 {
		// A branch can still be bendable when its roots are tainted
		// through pointer misdirection even though no IC call joined the
		// slice directly.
		for root := range g.Roots {
			if taint.Roots[root] {
				return BranchIndirect
			}
		}
		return BranchUnaffected
	}
	// Direct: the predicate's immediate operands load an IC-written root.
	cond, ok := g.Branch.Args[0].(*ir.Instr)
	if !ok {
		return BranchIndirect
	}
	directRoots := make(map[ir.Value]bool)
	var collect func(v ir.Value, depth int)
	collect = func(v ir.Value, depth int) {
		if depth > 5 {
			return
		}
		in, ok := peelCasts(v).(*ir.Instr)
		if !ok {
			return
		}
		switch in.Op {
		case ir.OpLoad:
			if root := dataflow.MemRoot(in.Args[0]); root != nil {
				directRoots[root] = true
			}
		case ir.OpCall:
			// strcmp(user, ...) style predicates: their pointer args.
			for _, ca := range in.Args {
				if root := dataflow.MemRoot(ca); root != nil {
					directRoots[root] = true
				}
			}
		case ir.OpICmp, ir.OpZExt, ir.OpSExt:
			for _, a := range in.Args {
				collect(a, depth+1)
			}
		}
	}
	for _, op := range cond.Args {
		collect(op, 0)
	}
	for _, site := range g.ICs {
		for i, arg := range site.Call.Args {
			if !inputchan.WritesArg(site.Call.Callee, i) {
				continue
			}
			if root := dataflow.MemRoot(arg); root != nil && directRoots[root] {
				return BranchDirect
			}
		}
	}
	return BranchIndirect
}

// peelCasts strips value-preserving conversions so classification sees
// the underlying load/call.
func peelCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || !in.Op.IsCast() {
			return v
		}
		v = in.Args[0]
	}
}

// SecuredBy reports whether the given technique's slice covers every
// ground-truth input channel of the branch — the paper's "a technique
// protects a branch if [it] can generate and protect the branch's
// backward slice to the input channel".
func (a *Analysis) SecuredBy(info BranchInfo, mode Mode) bool {
	if info.Class == BranchUnaffected {
		return true
	}
	s := a.BranchDecomposition(info.Branch, mode)
	if s.Terminated && mode == ModeDFI {
		return false
	}
	for _, ic := range info.Ground.ICs {
		if !s.ContainsIC(ic.Call) {
			return false
		}
	}
	// Pointer-misdirection cases with no direct IC in the slice: the
	// technique must still see the tainted root (via aliasing) — DFI
	// cannot.
	if len(info.Ground.ICs) == 0 && mode == ModeDFI {
		return false
	}
	return true
}

// Sites exposes the channel scan (for Fig. 5b).
func (r *VulnReport) Distribution() inputchan.Distribution {
	return inputchan.Distribute(r.Analysis.Sites)
}
