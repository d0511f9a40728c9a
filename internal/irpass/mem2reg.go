// Package irpass holds generic (non-security) IR transformations: the
// mem2reg SSA-promotion pass the paper runs before its analyses, plus
// constant folding and dead-code elimination used by the -O pipeline.
// The passes index a function's instructions by ID (Func.Renumber) and
// never rescan the function per promoted load, fold or removal.
package irpass

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Mem2Reg promotes allocas whose address never escapes (used only by
// direct loads and stores of the full scalar) to SSA registers, inserting
// phis at dominance frontiers. It returns the number of allocas promoted.
//
// Address-taken variables — arrays, structs, anything passed to a call or
// through a GEP — remain in memory, which is precisely the set the Pythia
// passes instrument ("intrinsic functions for the remaining loads,
// stores, and alloca instructions").
//
// Renaming is the dominator-tree walk of Cytron et al. (TOPLAS 1991):
// one current value per variable, restored from an undo log on the way
// back up, and a replacement recorded for each promoted load. One final
// pass rewrites every operand through those replacements and drops the
// promoted allocas, loads and stores.
func Mem2Reg(f *ir.Func) int {
	if f.IsDecl() {
		return 0
	}
	p := &promotion{instrs: numbered(f)}
	p.collectPromotable()
	if len(p.allocas) == 0 {
		return 0
	}
	p.g = cfg.New(f)
	p.placePhis(f)
	p.cur = make([]ir.Value, len(p.allocas))
	p.repl = make([]ir.Value, len(p.instrs))
	p.rename(f.Entry())
	p.edgesFromUnreachable(f)
	p.rewrite(f)
	f.Renumber()
	return len(p.allocas)
}

// promotion is one Mem2Reg run over a function.
type promotion struct {
	g       *cfg.Graph
	instrs  []*ir.Instr // the function's instructions, by ID
	slot    []int32     // by ID: 1 + the variable index of a promoted alloca, else 0
	allocas []*ir.Instr // the promoted allocas, in block order

	phis map[*ir.Block][]placedPhi // each block's phis, in placement order

	cur  []ir.Value // by variable: its current value; nil before any store
	undo []saved    // cur entries to restore when the walk leaves a block
	repl []ir.Value // by ID: the value a promoted load was renamed to
}

type placedPhi struct {
	v   int // variable index
	phi *ir.Instr
}

type saved struct {
	v   int
	old ir.Value
}

// numbered renumbers f and returns its instructions indexed by ID.
func numbered(f *ir.Func) []*ir.Instr {
	f.Renumber()
	out := make([]*ir.Instr, 0, f.NumInstrs())
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// idOf returns the ID of v when v is one of instrs, the numbered
// instructions of a function, and -1 otherwise.
func idOf(instrs []*ir.Instr, v ir.Value) int {
	in, ok := v.(*ir.Instr)
	if !ok || in.ID < 0 || in.ID >= len(instrs) || instrs[in.ID] != in {
		return -1
	}
	return in.ID
}

// collectPromotable finds the allocas of scalar type used only as the
// address operand of loads and full stores.
func (p *promotion) collectPromotable() {
	escaped := make([]bool, len(p.instrs))
	escape := func(v ir.Value) {
		if id := idOf(p.instrs, v); id >= 0 && p.instrs[id].Op == ir.OpAlloca {
			escaped[id] = true // address escapes (call arg, gep, stored value...)
		}
	}
	for _, in := range p.instrs {
		if in.Op == ir.OpAlloca && ir.IsAggregate(in.AllocTy) {
			escaped[in.ID] = true // arrays/structs stay in memory
		}
		for i, a := range in.Args {
			if !(in.Op == ir.OpLoad && i == 0 || in.Op == ir.OpStore && i == 1) {
				escape(a)
			}
		}
		for _, e := range in.Incoming {
			escape(e.Val)
		}
	}
	p.slot = make([]int32, len(p.instrs))
	for _, in := range p.instrs {
		if in.Op == ir.OpAlloca && !escaped[in.ID] {
			p.allocas = append(p.allocas, in)
			p.slot[in.ID] = int32(len(p.allocas))
		}
	}
}

// varOf returns the variable index of v when v is a promoted alloca,
// and -1 otherwise.
func (p *promotion) varOf(v ir.Value) int {
	if id := idOf(p.instrs, v); id >= 0 {
		return int(p.slot[id]) - 1
	}
	return -1
}

// placePhis places one phi per variable at the iterated dominance
// frontier of the blocks that store to it.
func (p *promotion) placePhis(f *ir.Func) {
	defs := make([][]*ir.Block, len(p.allocas))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if v := p.varOf(in.Args[1]); v >= 0 && (len(defs[v]) == 0 || defs[v][len(defs[v])-1] != b) {
				defs[v] = append(defs[v], b)
			}
		}
	}
	df := p.g.DominanceFrontiers()
	// state[b] is 3v+1 once block b has been queued for variable v, and
	// 3v+2 once b also holds v's phi; smaller values are another
	// variable's.
	state := make(map[*ir.Block]int, len(f.Blocks))
	p.phis = make(map[*ir.Block][]placedPhi)
	for v, a := range p.allocas {
		queued, placed := 3*v+1, 3*v+2
		work := defs[v]
		for _, b := range work {
			state[b] = queued
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range df[b] {
				if state[fr] == placed {
					continue
				}
				phi := ir.NewInstr(ir.OpPhi, f.GenName("m2r"), a.AllocTy)
				phi.Block = fr
				p.phis[fr] = append(p.phis[fr], placedPhi{v, phi})
				if state[fr] != queued {
					work = append(work, fr)
				}
				state[fr] = placed
			}
		}
	}
}

// value is variable v's current value, or zero before any store.
func (p *promotion) value(v int) ir.Value {
	if val := p.cur[v]; val != nil {
		return val
	}
	return p.zero(v) // use before def
}

func (p *promotion) zero(v int) ir.Value { return ir.ConstInt(p.allocas[v].AllocTy, 0) }

func (p *promotion) set(v int, val ir.Value) {
	p.undo = append(p.undo, saved{v, p.cur[v]})
	p.cur[v] = val
}

// resolve returns what v reads once the promoted loads are gone: the
// value a load was renamed to, or v itself. A load the walk never
// reached, in unreachable code, reads the zero of its type.
func (p *promotion) resolve(v ir.Value) ir.Value {
	id := idOf(p.instrs, v)
	if id < 0 || p.instrs[id].Op != ir.OpLoad || p.varOf(p.instrs[id].Args[0]) < 0 {
		return v
	}
	if p.repl[id] == nil {
		p.repl[id] = ir.ConstInt(p.instrs[id].Typ, 0)
	}
	return p.repl[id]
}

// rename walks the dominator tree from b.
func (p *promotion) rename(b *ir.Block) {
	mark := len(p.undo)
	for _, ph := range p.phis[b] {
		p.set(ph.v, ph.phi)
	}
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpLoad:
			if v := p.varOf(in.Args[0]); v >= 0 {
				p.repl[in.ID] = p.value(v)
			}
		case ir.OpStore:
			if v := p.varOf(in.Args[1]); v >= 0 {
				p.set(v, p.resolve(in.Args[0]))
			}
		}
	}
	for _, s := range b.Succs() {
		for _, ph := range p.phis[s] {
			ir.AddIncoming(ph.phi, p.value(ph.v), b)
		}
	}
	for _, child := range p.g.DomChildren[b] {
		p.rename(child)
	}
	for len(p.undo) > mark {
		e := p.undo[len(p.undo)-1]
		p.cur[e.v] = e.old
		p.undo = p.undo[:len(p.undo)-1]
	}
}

// edgesFromUnreachable gives each placed phi a zero edge from every
// predecessor the walk never reaches, so it has one edge per
// predecessor; code there never runs.
func (p *promotion) edgesFromUnreachable(f *ir.Func) {
	for _, b := range f.Blocks {
		if p.g.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			for _, ph := range p.phis[s] {
				ir.AddIncoming(ph.phi, p.zero(ph.v), b)
			}
		}
	}
}

// rewrite puts each block's phis in front of it, latest placed first,
// drops the promoted allocas, loads and stores, and resolves every
// remaining operand and phi edge.
func (p *promotion) rewrite(f *ir.Func) {
	var kept []*ir.Instr
	for _, b := range f.Blocks {
		kept = kept[:0]
		phis := p.phis[b]
		for i := len(phis) - 1; i >= 0; i-- {
			kept = append(kept, phis[i].phi)
		}
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpAlloca && p.varOf(in) >= 0:
			case in.Op == ir.OpStore && p.varOf(in.Args[1]) >= 0:
			case in.Op == ir.OpLoad && p.varOf(in.Args[0]) >= 0:
			default:
				kept = append(kept, in)
			}
		}
		for _, in := range kept {
			for i, a := range in.Args {
				in.Args[i] = p.resolve(a)
			}
			for i := range in.Incoming {
				in.Incoming[i].Val = p.resolve(in.Incoming[i].Val)
			}
		}
		b.Instrs = append([]*ir.Instr(nil), kept...)
	}
}
