package harden

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/slice"
)

// sealKind classifies how a vulnerable root is protected by CPA.
type sealKind int

const (
	sealNone   sealKind = iota
	sealScalar          // [value|PAC] pair, check.load / seal.store
	sealObject          // pacga object MAC, obj.check / obj.seal
)

// sealPlan records the per-root protection decisions of one pass run.
type sealPlan struct {
	kind map[ir.Value]sealKind
	size map[ir.Value]int64 // object byte size for sealObject roots
	// sizeVal overrides size with a runtime value (heap objects whose
	// allocation size is not a constant).
	sizeVal map[ir.Value]ir.Value
}

// newSealPlan returns an empty plan.
func newSealPlan() *sealPlan {
	return &sealPlan{
		kind:    make(map[ir.Value]sealKind),
		size:    make(map[ir.Value]int64),
		sizeVal: make(map[ir.Value]ir.Value),
	}
}

// sizeValue returns the byte-size operand for an obj.seal/obj.check of
// root.
func (p *sealPlan) sizeValue(root ir.Value) ir.Value {
	if v, ok := p.sizeVal[root]; ok {
		return v
	}
	return ir.ConstInt(ir.I64, p.size[root])
}

func (p *sealPlan) scalar(v ir.Value) bool { return p.kind[v] == sealScalar }
func (p *sealPlan) object(v ir.Value) bool { return p.kind[v] == sealObject }

// applyCPA implements Algorithm 2: every unrefined vulnerable variable is
// sealed with ARM-PA — encrypted at definition, authenticated before
// every use.
func applyCPA(mod *ir.Module, vb *slice.Binding, rep *Report) {
	plan := newSealPlan()
	for _, root := range vb.CPAVars() {
		classifyRoot(plan, root, rep)
	}
	for _, f := range mod.Defined() {
		instrumentSeals(f, vb, plan, rep)
	}
}

// classifyRoot decides the protection kind for one root and performs the
// storage widening sealing needs.
func classifyRoot(plan *sealPlan, root ir.Value, rep *Report) {
	switch r := root.(type) {
	case *ir.Instr:
		if r.Op == ir.OpCall {
			// Heap allocation site: seal the object's contents under a
			// pacga MAC keyed by its (runtime) base address.
			plan.kind[root] = sealObject
			if len(r.Args) > 0 {
				plan.sizeVal[root] = r.Args[0]
			} else {
				plan.size[root] = 8
			}
			rep.SealedObjects++
			return
		}
		if r.Op != ir.OpAlloca {
			return
		}
		if isScalar(r.AllocTy) {
			plan.kind[root] = sealScalar
			// Widen the slot to [value:8 | pac:8].
			r.AllocTy = ir.ArrayOf(ir.I64, 2)
			r.SetMeta("sealed", "1")
			rep.SealedScalars++
		} else {
			plan.kind[root] = sealObject
			plan.size[root] = r.AllocTy.Size()
			rep.SealedObjects++
		}
	case *ir.Global:
		if r.Str != "" {
			return // string literals are read-only
		}
		if isScalar(r.Elem) {
			plan.kind[root] = sealScalar
			r.Elem = ir.ArrayOf(ir.I64, 2)
			r.Sealed = true
			rep.SealedScalars++
		} else {
			plan.kind[root] = sealObject
			plan.size[root] = r.Elem.Size()
			rep.SealedObjects++
		}
	}
}

// nameGen yields fresh SSA names tied to f.
func nameGen(f *ir.Func, hint string) string { return f.GenName(hint) }

// instrumentSeals rewrites one function's loads/stores/calls per the
// seal plan. It is shared by the CPA pass and Pythia's heap-pointer
// sealing (which passes a narrower plan). Every edit is queued while the
// walk reads the analyzed code, so each operand the walk asks about is
// one the analysis knows.
func instrumentSeals(f *ir.Func, vb *slice.Binding, plan *sealPlan, rep *Report) {
	ed := ir.NewEdits(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				sealLoadEdits(ed, f, vb, plan, in, rep)
			case ir.OpStore:
				sealStoreEdits(ed, f, vb, plan, in, rep)
			case ir.OpCall:
				if plan.object(ir.Value(in)) {
					// Initial seal of a freshly allocated heap object.
					ed.After(in, objSeal(f, in, plan.sizeValue(in)))
					rep.PAInstrs++
				}
				sealCallEdits(ed, f, vb, plan, in, rep)
			}
		}
	}
	ed.Apply()
}

func sealLoadEdits(ed *ir.Edits, f *ir.Func, vb *slice.Binding, plan *sealPlan, in *ir.Instr, rep *Report) {
	addr := in.Args[0]
	root := dataflow.MemRoot(addr)
	switch {
	case root != nil && plan.scalar(root):
		// Replace the load with an authenticated check.load.
		cl := markPass(ir.NewInstr(ir.OpCheckLoad, nameGen(f, "chk"), ir.I64, addr), "cpa")
		rep.PAInstrs++
		repl := ir.Value(cl)
		ins := []*ir.Instr{cl}
		if !in.Typ.Equal(ir.I64) {
			tr := ir.NewInstr(ir.OpTrunc, nameGen(f, "sv"), in.Typ, cl)
			ins = append(ins, tr)
			repl = tr
		}
		ed.Replace(in, repl)
		ed.Before(in, ins...)
		ed.Remove(in)
	case root != nil && plan.object(root):
		ed.Before(in, objCheck(f, root, plan.sizeValue(root)))
		rep.PAInstrs++
	case root == nil:
		// Computed address: verify every sealed object it may read.
		var ins []*ir.Instr
		for _, obj := range vb.PointsTo(addr) {
			r := scopedRoot(f, obj)
			switch {
			case plan.object(r):
				ins = append(ins, objCheck(f, r, plan.sizeValue(r)))
				rep.PAInstrs++
			case plan.scalar(r):
				ins = append(ins, markPass(ir.NewInstr(ir.OpCheckLoad, nameGen(f, "chk"), ir.I64, r), "cpa"))
				rep.PAInstrs++
			}
		}
		ed.Before(in, ins...)
	}
}

func sealStoreEdits(ed *ir.Edits, f *ir.Func, vb *slice.Binding, plan *sealPlan, in *ir.Instr, rep *Report) {
	addr := in.Args[1]
	root := dataflow.MemRoot(addr)
	switch {
	case root != nil && plan.scalar(root):
		val := in.Args[0]
		var ins []*ir.Instr
		if !val.Type().Equal(ir.I64) {
			sx := ir.NewInstr(ir.OpSExt, nameGen(f, "sw"), ir.I64, val)
			ins = append(ins, sx)
			val = sx
		}
		ss := markPass(ir.NewInstr(ir.OpSealStore, "", ir.Void, val, addr), "cpa")
		rep.PAInstrs++
		ed.Before(in, append(ins, ss)...)
		ed.Remove(in)
	case root != nil && plan.object(root):
		ed.After(in, objSeal(f, root, plan.sizeValue(root)))
		rep.PAInstrs++
	case root == nil:
		// A store through a computed pointer may legitimately write any
		// sealed object it aliases: reseal them afterwards.
		var ins []*ir.Instr
		for _, obj := range vb.PointsTo(addr) {
			r := scopedRoot(f, obj)
			switch {
			case plan.object(r):
				ins = append(ins, objSeal(f, r, plan.sizeValue(r)))
				rep.PAInstrs++
			case plan.scalar(r):
				ins = append(ins, resealScalar(f, r)...)
				rep.PAInstrs++
			}
		}
		ed.After(in, ins...)
	}
}

// sealCallEdits reseals sealed storage around calls: a check before (the
// callee reads authenticated state — and pre-existing corruption is
// caught here) and a seal after (the callee may have legitimately
// written through the pointer, including input channels).
func sealCallEdits(ed *ir.Edits, f *ir.Func, vb *slice.Binding, plan *sealPlan, in *ir.Instr, rep *Report) {
	var before, after []*ir.Instr
	seen := make(map[ir.Value]bool)
	consider := func(r ir.Value) {
		if r == nil || seen[r] {
			return
		}
		seen[r] = true
		switch {
		case plan.object(r):
			before = append(before, objCheck(f, r, plan.sizeValue(r)))
			after = append(after, objSeal(f, r, plan.sizeValue(r)))
			rep.PAInstrs += 2
		case plan.scalar(r):
			before = append(before, markPass(ir.NewInstr(ir.OpCheckLoad, nameGen(f, "chk"), ir.I64, r), "cpa"))
			after = append(after, resealScalar(f, r)...)
			rep.PAInstrs += 2
		}
	}
	for _, arg := range in.Args {
		if !ir.IsPtr(arg.Type()) {
			continue
		}
		consider(dataflow.MemRoot(arg))
		for _, obj := range vb.PointsTo(arg) {
			consider(scopedRoot(f, obj))
		}
	}
	ed.Before(in, before...)
	ed.After(in, after...)
}

// resealScalar emits "v = load root; seal.store v, root" — recomputing
// the PAC over whatever the slot currently holds (idempotent when the
// slot was untouched).
func resealScalar(f *ir.Func, root ir.Value) []*ir.Instr {
	ld := ir.NewInstr(ir.OpLoad, nameGen(f, "rsl"), ir.I64, root)
	ss := markPass(ir.NewInstr(ir.OpSealStore, "", ir.Void, ld, root), "cpa")
	return []*ir.Instr{ld, ss}
}

func objCheck(f *ir.Func, root ir.Value, size ir.Value) *ir.Instr {
	return markPass(ir.NewInstr(ir.OpObjCheck, "", ir.Void, root, size), "cpa")
}

func objSeal(f *ir.Func, root ir.Value, size ir.Value) *ir.Instr {
	return markPass(ir.NewInstr(ir.OpObjSeal, "", ir.Void, root, size), "cpa")
}

// scopedRoot returns an object's root only when it is referencable from
// f: globals always; allocas and heap sites only within their owning
// function (an SSA value cannot cross function boundaries).
func scopedRoot(f *ir.Func, root ir.Value) ir.Value {
	if in, ok := root.(*ir.Instr); ok && in.Block.Parent != f {
		return nil
	}
	return root
}
