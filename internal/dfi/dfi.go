// Package dfi implements the Data-Flow Integrity baseline (Castro,
// Costa, Harris — OSDI 2006) the paper compares against: a static
// reaching-definitions graph enforced at runtime with SETDEF/CHKDEF.
//
// Its two modeled weaknesses are exactly the ones the paper exploits:
//
//   - pointer arithmetic: stores through computed pointers and
//     input-channel calls whose destination cannot be resolved receive a
//     wildcard definition ID the checks always accept;
//   - field insensitivity: reaching sets are per-object, so intra-object
//     corruption passes.
package dfi

import (
	"strconv"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Report summarizes the instrumentation inserted.
type Report struct {
	SetDefs       int
	ChkDefs       int
	ICSites       int
	WildcardSites int
}

// Apply instruments mod with DFI checks in place.
func Apply(mod *ir.Module) (*Report, error) {
	rep := &Report{}
	nextIC := 1 << 20 // IC callsite IDs live above store IDs

	// Wrapper channels (user functions forwarding a parameter into a
	// libc channel) execute the *inner* channel's writes; calls to the
	// wrapper must therefore also permit the inner site IDs. forwarded
	// maps each defined channel function to the inner channel calls that
	// write through its pointer parameters.
	forwarded := make(map[*ir.Func][]*ir.Instr)
	for _, f := range mod.Defined() {
		if !f.Channel.IsChannel() {
			continue
		}
		params := make(map[ir.Value]bool)
		for _, p := range f.Params {
			if ir.IsPtr(p.Typ) {
				params[p] = true
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || !in.Callee.Channel.IsChannel() {
					continue
				}
				for i, arg := range in.Args {
					if params[arg] && inputchan.WritesArg(in.Callee, i) {
						forwarded[f] = append(forwarded[f], in)
						break
					}
				}
			}
		}
	}
	// Pass A: assign IDs to every channel call site module-wide.
	siteID := make(map[*ir.Instr]int)
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || !in.Callee.Channel.IsChannel() {
					continue
				}
				rep.ICSites++
				id := nextIC
				nextIC++
				siteID[in] = id
				resolved := true
				for i, arg := range in.Args {
					if inputchan.WritesArg(in.Callee, i) && dfiMemRoot(arg) == nil {
						resolved = false
					}
				}
				if !resolved {
					// DFI cannot reason about the destination: the
					// writes get the always-allowed wildcard.
					rep.WildcardSites++
					in.SetMeta("dfi.callsite", strconv.Itoa(vm.DFIWildcard))
				} else {
					in.SetMeta("dfi.callsite", strconv.Itoa(id))
				}
			}
		}
	}
	// effectiveIDs returns the IDs whose writes a call to site may
	// perform: its own, plus (transitively) the inner forwarded channel
	// sites when the callee is a wrapper.
	var effectiveIDs func(in *ir.Instr, depth int) []int
	effectiveIDs = func(in *ir.Instr, depth int) []int {
		out := []int{siteID[in]}
		if depth > 4 {
			return out
		}
		for _, inner := range forwarded[in.Callee] {
			out = append(out, effectiveIDs(inner, depth+1)...)
		}
		return out
	}

	// Store IDs must be unique module-wide: the runtime definitions
	// table is keyed by address, and globals are written from several
	// functions. Each function's reaching-def IDs are offset by a
	// running base; loads of globals additionally allow every store to
	// that global anywhere in the module.
	rds := make(map[*ir.Func]*dataflow.ReachingDefs)
	bases := make(map[*ir.Func]int)
	globalWriters := make(map[ir.Value][]int)
	base := 1
	for _, f := range mod.Defined() {
		g := cfg.New(f)
		rd := dataflow.ComputeReaching(f, g)
		rds[f] = rd
		bases[f] = base
		for _, d := range rd.Defs {
			if gl, ok := d.Root.(*ir.Global); ok {
				globalWriters[gl] = append(globalWriters[gl], base+d.ID)
			}
		}
		base += len(rd.Defs)
	}

	// Pass B: per-function instrumentation.
	for _, f := range mod.Defined() {
		rd := rds[f]
		off := bases[f]

		// icWriters records, per root, the channel site IDs that may
		// legitimately write it.
		icWriters := make(map[ir.Value][]int)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || !in.Callee.Channel.IsChannel() {
					continue
				}
				for i, arg := range in.Args {
					if !inputchan.WritesArg(in.Callee, i) {
						continue
					}
					if root := dfiMemRoot(arg); root != nil {
						icWriters[root] = append(icWriters[root], effectiveIDs(in, 0)...)
					}
				}
			}
		}

		ed := ir.NewEdits(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStore:
					id := rd.DefID(in)
					if id < 0 {
						continue // unresolved target: DFI loses track
					}
					sd := ir.NewInstr(ir.OpSetDef, "", ir.Void, in.Args[1])
					sd.DefID = off + id
					sd.SetMeta("pass", "dfi")
					ed.After(in, sd)
					rep.SetDefs++
				case ir.OpLoad:
					atLoad, ok := rd.AtLoad[in]
					if !ok {
						continue
					}
					allowed := make([]int, 0, len(atLoad)+4)
					for _, id := range atLoad {
						allowed = append(allowed, off+id)
					}
					root := dataflow.MemRoot(in.Args[0])
					if _, isGlobal := root.(*ir.Global); isGlobal {
						allowed = append(allowed, globalWriters[root]...)
					}
					allowed = append(allowed, icWriters[root]...)
					cd := ir.NewInstr(ir.OpChkDef, "", ir.Void, in.Args[0])
					cd.Allowed = allowed
					cd.SetMeta("pass", "dfi")
					ed.Before(in, cd)
					rep.ChkDefs++
				}
			}
		}
		ed.Apply()
		f.Renumber()
	}
	return rep, ir.Verify(mod)
}

// dfiMemRoot resolves an address to its base object using only the
// reasoning DFI has: constant-offset address computation. Non-constant
// GEP indices, struct field access and integer/pointer casts defeat it
// (the paper's §6.2 limitation), unlike dataflow.MemRoot which follows
// them structurally.
func dfiMemRoot(addr ir.Value) ir.Value {
	for {
		switch v := addr.(type) {
		case *ir.Global:
			return v
		case *ir.Param:
			if ir.IsPtr(v.Typ) {
				return v
			}
			return nil
		case *ir.Instr:
			switch v.Op {
			case ir.OpAlloca:
				return v
			case ir.OpGEP:
				if pt, ok := v.Args[0].Type().(*ir.PtrType); ok {
					if _, isStruct := pt.Elem.(*ir.StructType); isStruct {
						return nil // field-insensitive
					}
				}
				for _, idx := range v.Args[1:] {
					if _, isConst := idx.(*ir.Const); !isConst {
						return nil // pointer arithmetic
					}
				}
				addr = v.Args[0]
			default:
				return nil
			}
		default:
			return nil
		}
	}
}
