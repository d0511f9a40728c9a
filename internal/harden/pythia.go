package harden

import (
	"slices"

	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/slice"
)

// pythiaConfig selects which halves of the performance-aware scheme run
// (the ablation benchmarks toggle them independently).
type pythiaConfig struct {
	Stack    bool // stack re-layout + canaries (Alg. 3)
	Heap     bool // heap sectioning (Alg. 4)
	Relayout bool // move vulnerable slots to the frame top (off = canaries in place)
}

// applyPythia implements the performance-aware scheme: the refined
// vulnerable set (branch sub-variables ∩ input-channel taint) is
// protected with stack canaries + re-layout and heap sectioning instead
// of across-the-board sealing.
func applyPythia(mod *ir.Module, vb *slice.Binding, rep *Report, cfg pythiaConfig) {
	if cfg.Heap {
		sectionHeap(mod, vb, rep)
	}
	// Heap-pointer scalars still get PA sealing (Alg. 4 encrypts the
	// vulnerable heap variable's uses); everything else stack-local is
	// covered by canaries.
	ptrPlan := newSealPlan()
	if cfg.Heap {
		for _, root := range vb.PythiaVars() {
			a, ok := root.(*ir.Instr)
			if !ok || a.Op != ir.OpAlloca || !ir.IsPtr(a.AllocTy) {
				continue
			}
			if vb.MayHoldHeapPointer(a) {
				ptrPlan.kind[root] = sealScalar
				a.AllocTy = ir.ArrayOf(ir.I64, 2)
				a.SetMeta("sealed", "1")
				rep.SealedScalars++
			}
		}
	}
	for _, f := range mod.Defined() {
		if len(ptrPlan.kind) > 0 {
			instrumentSeals(f, vb, ptrPlan, rep)
		}
		if cfg.Stack {
			protectStack(f, vb, rep, cfg)
		}
	}
}

// sectionHeap rewrites vulnerable allocation sites to secure_malloc
// (Algorithm 4: relocate vulnerable heap variables into the isolated
// section).
func sectionHeap(mod *ir.Module, vb *slice.Binding, rep *Report) {
	secure := mod.Func("secure_malloc")
	if secure == nil {
		secure = inputchan.Declare(mod)["secure_malloc"]
	}
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || in.Callee.FName != "malloc" {
					continue
				}
				if vb.Pythia(in) || vb.TaintRoot(in) {
					in.Callee = secure
					in.SetMeta("pass", "pythia.heap")
					rep.HeapRelocated++
				}
			}
		}
	}
}

// protectStack implements Algorithm 3 for one function: detect the
// vulnerable stack variables, re-arrange the frame so they sit together
// at the top (high addresses) each followed by a PA-signed canary, and
// instrument input-channel calls with re-randomization + checks.
func protectStack(f *ir.Func, vb *slice.Binding, rep *Report, cfg pythiaConfig) {
	var vuln []*ir.Instr
	for _, a := range f.Allocas() {
		if a.GetMeta("sealed") != "" || a.GetMeta("canary") != "" {
			continue
		}
		// Canary-protected set: refined vulnerable variables plus every
		// input-channel destination buffer — the overflow *sources* the
		// paper canaries in §6.3 ("classifies 'someinput' as a stack
		// variable ... and adds a canary after it").
		if vb.Pythia(a) || (vb.TaintRoot(a) && ir.IsAggregate(a.AllocTy)) {
			vuln = append(vuln, a)
		}
	}
	if len(vuln) == 0 {
		return
	}
	// One canary alloca per vulnerable variable.
	canaryOf := make(map[*ir.Instr]*ir.Instr, len(vuln))
	entry := f.Entry()
	for _, a := range vuln {
		can := ir.NewInstr(ir.OpAlloca, f.GenName("can"), ir.PointerTo(ir.I64))
		can.AllocTy = ir.I64
		can.SetMeta("canary", "1")
		can.SetMeta("pass", "pythia.stack")
		// Canary allocas lead the entry block: the set/check operations
		// inserted around input channels may precede the original
		// allocation point in layout order.
		can.Block = entry
		entry.Instrs = append([]*ir.Instr{can}, entry.Instrs...)
		canaryOf[a] = can
		rep.Canaries++
	}
	f.Plan = buildPlan(f, vuln, canaryOf, cfg.Relayout)

	// Instrument input-channel calls: re-randomize the canaries guarding
	// the buffers this channel may write, then authenticate after the
	// call returns (§4.4: "we re-randomize whenever the canary's
	// neighbour stack variable will be used by an input channel").
	vulnSet := make(map[ir.Value]bool, len(vuln))
	for _, a := range vuln {
		vulnSet[a] = true
	}
	// Per basic block, coalesce the canary window around consecutive
	// channel calls writing the same buffer: re-randomize before the
	// first, authenticate after the last. The §4.4 "window" semantics
	// are preserved (any overflow is caught before the block's
	// terminating branch can consume corrupted state) at a fraction of
	// the static instruction bloat.
	ed := ir.NewEdits(f)
	for _, b := range f.Blocks {
		type span struct{ first, last *ir.Instr }
		spans := make(map[*ir.Instr]*span)
		var order []*ir.Instr
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpCall && in.Callee.Channel.IsChannel():
				site := inputchan.CallSite{Caller: f, Call: in, Kind: in.Callee.Channel}
				for _, r := range rootsWrittenBy(vb, site, vulnSet) {
					a := r.(*ir.Instr)
					sp := spans[a]
					if sp == nil {
						sp = &span{first: in}
						spans[a] = sp
						order = append(order, a)
					}
					sp.last = in
				}
			case in.Op == ir.OpCall && !in.Callee.IsDecl():
				// Interprocedural case (§4.4): a defined callee that
				// receives a pointer into one of our vulnerable buffers
				// may overflow it from inside (wrapper channels are
				// caught above; this covers callees with their own copy
				// loops). The paper's "global pointer canary" becomes a
				// check of the aliased buffer's canary right after the
				// call — before any branch can consume corrupted state.
				var checks []*ir.Instr
				for _, a := range vuln {
					for _, arg := range in.Args {
						if ir.IsPtr(arg.Type()) && slices.Contains(vb.PointsTo(arg), ir.Value(a)) {
							checks = append(checks, canaryOp(ir.OpCanaryCheck, canaryOf[a]))
							rep.PAInstrs++
							break
						}
					}
				}
				ed.After(in, checks...)
			case in.Op == ir.OpRet:
				// Epilogue check of every canary catches overflows whose
				// channel was in a callee (interprocedural case, §4.4).
				var checks []*ir.Instr
				for _, a := range vuln {
					checks = append(checks, canaryOp(ir.OpCanaryCheck, canaryOf[a]))
					rep.PAInstrs++
				}
				ed.Before(in, checks...)
			}
		}
		for _, a := range order {
			sp := spans[a]
			ed.Before(sp.first, canaryOp(ir.OpCanarySet, canaryOf[a]))
			ed.After(sp.last, canaryOp(ir.OpCanaryCheck, canaryOf[a]))
			rep.PAInstrs += 2
		}
	}
	ed.Apply()
}

func canaryOp(op ir.Op, canary *ir.Instr) *ir.Instr {
	in := ir.NewInstr(op, "", ir.Void, canary)
	in.SetMeta("pass", "pythia.stack")
	return in
}

// buildPlan lays the frame out: non-vulnerable slots first (low
// addresses, overflow-upstream), then each vulnerable variable
// immediately followed by its canary. Without relayout (ablation) the
// declaration order is kept and canaries are placed after their
// variable wherever it happens to be — overflows can then reach other
// locals before any canary, which the ablation benchmark demonstrates.
func buildPlan(f *ir.Func, vuln []*ir.Instr, canaryOf map[*ir.Instr]*ir.Instr, relayout bool) *ir.StackPlan {
	isVuln := make(map[*ir.Instr]bool, len(vuln))
	for _, a := range vuln {
		isVuln[a] = true
	}
	isCanary := make(map[*ir.Instr]bool, len(canaryOf))
	for _, c := range canaryOf {
		isCanary[c] = true
	}
	p := &ir.StackPlan{}
	var off int64
	place := func(a *ir.Instr, canary, vulnFlag bool) {
		sz := (a.AllocTy.Size() + 7) &^ 7
		p.Slots = append(p.Slots, ir.StackSlot{
			Alloca: a,
			Offset: off,
			Size:   sz,
			Canary: canary,
			Vuln:   vulnFlag,
			Sealed: a.GetMeta("sealed") != "",
		})
		off += sz
	}
	if relayout {
		for _, a := range f.Allocas() {
			if !isVuln[a] && !isCanary[a] {
				place(a, false, false)
			}
		}
		for _, a := range f.Allocas() {
			if isVuln[a] {
				place(a, false, true)
				place(canaryOf[a], true, false)
			}
		}
	} else {
		for _, a := range f.Allocas() {
			if isCanary[a] {
				continue
			}
			place(a, false, isVuln[a])
			if isVuln[a] {
				place(canaryOf[a], true, false)
			}
		}
	}
	p.Size = off
	return p
}
