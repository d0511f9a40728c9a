package harden

import (
	"fmt"

	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/slice"
)

// Field canaries implement the extension the paper leaves as future work
// (§6.4): "Pythia cannot detect stack buffer overflows resulting within
// objects such as sub-fields of a struct... To solve this problem, stack
// canaries must be inserted within individual fields."
//
// The pass rewrites each vulnerable struct-typed stack variable's type,
// inserting an i64 canary field after every array field, remaps all
// constant-index field accesses, and arms/check the intra-object
// canaries with the same window discipline as the frame canaries.

// applyFieldCanaries instruments mod in place; it extends a regular
// Pythia application.
func applyFieldCanaries(mod *ir.Module, vb *slice.Binding, rep *Report) {
	for _, f := range mod.Defined() {
		fieldCanariesInFunc(f, vb, rep)
	}
}

// paddedStruct returns a copy of st with an i64 canary inserted after
// every array field, plus the index remap old->new and the list of new
// canary field indices. Returns nil when no field needs one.
func paddedStruct(st *ir.StructType) (*ir.StructType, map[int]int, []int) {
	hasArray := false
	for _, fl := range st.Fields {
		if _, ok := fl.Type.(*ir.ArrayType); ok {
			hasArray = true
			break
		}
	}
	if !hasArray {
		return nil, nil, nil
	}
	out := &ir.StructType{Name: st.Name + ".fc"}
	remap := make(map[int]int, len(st.Fields))
	var canaries []int
	for i, fl := range st.Fields {
		remap[i] = len(out.Fields)
		out.Fields = append(out.Fields, fl)
		if _, ok := fl.Type.(*ir.ArrayType); ok {
			canaries = append(canaries, len(out.Fields))
			out.Fields = append(out.Fields, ir.StructField{
				Name: fmt.Sprintf("__canary%d", i),
				Type: ir.I64,
			})
		}
	}
	return out, remap, canaries
}

func fieldCanariesInFunc(f *ir.Func, vb *slice.Binding, rep *Report) {
	type padded struct {
		alloca   *ir.Instr
		st       *ir.StructType
		remap    map[int]int
		canaries []int
	}
	var targets []padded
	for _, a := range f.Allocas() {
		st, ok := a.AllocTy.(*ir.StructType)
		if !ok {
			continue
		}
		if !vb.Pythia(a) && !vb.TaintRoot(a) {
			continue
		}
		ns, remap, cans := paddedStruct(st)
		if ns == nil {
			continue
		}
		a.AllocTy = ns
		a.Typ = ir.PointerTo(ns)
		a.SetMeta("fieldcanary", "1")
		targets = append(targets, padded{a, ns, remap, cans})
		rep.Canaries += len(cans)
	}
	if len(targets) == 0 {
		return
	}
	byAlloca := make(map[*ir.Instr]*padded, len(targets))
	for i := range targets {
		byAlloca[targets[i].alloca] = &targets[i]
	}

	// Remap constant struct-field GEP indices into the padded layout.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpGEP || len(in.Args) < 3 {
				continue
			}
			base, ok := in.Args[0].(*ir.Instr)
			if !ok {
				continue
			}
			p, tracked := byAlloca[base]
			if !tracked {
				continue
			}
			idx, ok := in.Args[2].(*ir.Const)
			if !ok {
				continue // non-constant field index: field-insensitive fallback
			}
			in.Args[2] = ir.ConstInt(idx.Typ, int64(p.remap[int(idx.Val)]))
		}
	}

	// fieldAddr makes a GEP to a canary field for a set or check.
	fieldAddr := func(p *padded, fieldIdx int) *ir.Instr {
		gep := ir.NewInstr(ir.OpGEP, f.GenName("fc"), ir.PointerTo(ir.I64),
			p.alloca, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, int64(fieldIdx)))
		gep.SetMeta("pass", "pythia.field")
		return gep
	}
	// guard queues a GEP and the canary op that reads it before anchor.
	// Every GEP at an anchor lands ahead of every op there, so ops wait
	// in `ops` until the walk is done.
	ed := ir.NewEdits(f)
	type guarded struct{ anchor, op *ir.Instr }
	var ops []guarded
	guard := func(anchor *ir.Instr, p *padded, fieldIdx int, op ir.Op) {
		gep := fieldAddr(p, fieldIdx)
		ed.Before(anchor, gep)
		ops = append(ops, guarded{anchor, canaryOp(op, gep)})
		rep.PAInstrs++
	}
	// Arm every field canary at function entry (after the allocas), and
	// around channel calls that may write the struct; check at returns.
	entryAnchor := f.Entry().Instrs[len(f.Entry().Instrs)-1]
	for i := range targets {
		p := &targets[i]
		for _, ci := range p.canaries {
			guard(entryAnchor, p, ci, ir.OpCanarySet)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpCall && in.Callee.Channel.IsChannel():
				for i := range targets {
					p := &targets[i]
					if !channelMayWrite(vb, in, p.alloca) {
						continue
					}
					for _, ci := range p.canaries {
						guard(in, p, ci, ir.OpCanarySet)
						gep := fieldAddr(p, ci)
						ed.After(in, gep, canaryOp(ir.OpCanaryCheck, gep))
						rep.PAInstrs++
					}
				}
			case in.Op == ir.OpRet:
				for i := range targets {
					p := &targets[i]
					for _, ci := range p.canaries {
						guard(in, p, ci, ir.OpCanaryCheck)
					}
				}
			}
		}
	}
	for _, g := range ops {
		ed.Before(g.anchor, g.op)
	}
	ed.Apply()
}

// channelMayWrite reports whether the channel call's destination may be
// the given alloca (directly or via aliases).
func channelMayWrite(vb *slice.Binding, call *ir.Instr, alloca *ir.Instr) bool {
	site := inputchan.CallSite{Call: call, Kind: call.Callee.Channel}
	roots := rootsWrittenBy(vb, site, map[ir.Value]bool{ir.Value(alloca): true})
	return len(roots) > 0
}
