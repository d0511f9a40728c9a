// Package dataflow computes the classical analyses the Pythia algorithms
// are built from: def-use / use-def chains (Def. 2.2 of the paper) and
// reaching definitions over memory (the substrate of the DFI baseline).
package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Use records one operand position that reads a value.
type Use struct {
	User *ir.Instr
	Arg  int // index into User.Args, or -1 for a phi edge
}

// Chains holds the def-use and use-def relations of one function. After
// mem2reg most scalars are SSA values; address-taken variables are still
// memory, which MemDefs/MemUses cover.
type Chains struct {
	F *ir.Func
	// Uses maps each SSA value to the instructions reading it.
	Uses map[ir.Value][]Use
	// MemDefs maps each alloca/global root to the stores into it.
	MemDefs map[ir.Value][]*ir.Instr
	// MemUses maps each alloca/global root to the loads out of it.
	MemUses map[ir.Value][]*ir.Instr
}

// Build computes the chains for f.
func Build(f *ir.Func) *Chains {
	c := &Chains{
		F:       f,
		Uses:    make(map[ir.Value][]Use),
		MemDefs: make(map[ir.Value][]*ir.Instr),
		MemUses: make(map[ir.Value][]*ir.Instr),
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				c.Uses[a] = append(c.Uses[a], Use{User: in, Arg: i})
			}
			for _, e := range in.Incoming {
				c.Uses[e.Val] = append(c.Uses[e.Val], Use{User: in, Arg: -1})
			}
			switch in.Op {
			case ir.OpStore:
				if root := MemRoot(in.Args[1]); root != nil {
					c.MemDefs[root] = append(c.MemDefs[root], in)
				}
			case ir.OpLoad:
				if root := MemRoot(in.Args[0]); root != nil {
					c.MemUses[root] = append(c.MemUses[root], in)
				}
			}
		}
	}
	return c
}

// MemRoot follows an address computation back to its base object: an
// alloca, a global, or a pointer-typed parameter. It returns nil when
// the base is a computed pointer (a load result, phi, or inttoptr) —
// exactly the cases where the DFI baseline loses track and where Pythia
// falls back to alias analysis.
func MemRoot(addr ir.Value) ir.Value {
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
				addr = v.Args[0]
			case ir.OpPacSign, ir.OpPacAuth, ir.OpPacStrip:
				addr = v.Args[0]
			default:
				return nil
			}
		default:
			return nil
		}
	}
}

// MemDef is one numbered store site, the unit the DFI baseline tracks.
type MemDef struct {
	ID    int
	Store *ir.Instr
	Root  ir.Value
}

// ReachingDefs numbers every store and computes, for each load, the set
// of store IDs that may reach it. The analysis is flow-sensitive per
// object root and field-insensitive (matching the DFI limitation the
// paper exploits): all stores under the same root kill each other only
// when they are provably the whole object.
type ReachingDefs struct {
	Defs    []MemDef
	AtLoad  map[*ir.Instr][]int // load -> permitted def IDs
	byStore map[*ir.Instr]int
}

// ComputeReaching builds the reaching-definition sets for f.
func ComputeReaching(f *ir.Func, g *cfg.Graph) *ReachingDefs {
	rd := &ReachingDefs{
		AtLoad:  make(map[*ir.Instr][]int),
		byStore: make(map[*ir.Instr]int),
	}
	// Number stores per root.
	rootsOf := make(map[ir.Value][]int)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			root := MemRoot(in.Args[1])
			if root == nil {
				continue
			}
			id := len(rd.Defs)
			rd.Defs = append(rd.Defs, MemDef{ID: id, Store: in, Root: root})
			rd.byStore[in] = id
			rootsOf[root] = append(rootsOf[root], id)
		}
	}
	// Field-insensitive DFI: every load from a root may observe any store
	// to that root that is not post-dominated by another full-object
	// store. We keep the conservative full set per root — this matches
	// the "reaching definitions table" DFI consults at CHKDEF.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpLoad {
				continue
			}
			root := MemRoot(in.Args[0])
			if root == nil {
				continue
			}
			rd.AtLoad[in] = append([]int(nil), rootsOf[root]...)
		}
	}
	return rd
}

// DefID returns the numbered ID for a store, or -1 when the store's
// target root could not be resolved.
func (rd *ReachingDefs) DefID(store *ir.Instr) int {
	if id, ok := rd.byStore[store]; ok {
		return id
	}
	return -1
}
