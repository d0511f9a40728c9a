package vm

// The decoder lowers a function once per machine into a flat, directly
// executable form: every result-producing instruction gets a dense slot
// in a flat register file, in block order, every operand is resolved
// to a {slot, constant, parameter} triple (globals fold to their laid-
// out addresses), GEPs fold their constant offsets, and access widths /
// masks are precomputed. The engine (engine.go) then dispatches over
// these arrays with no IR or map traffic on the hot path.
//
// Replacing the per-frame value map with zero-initialized slots is only
// sound when every use is provably executed after its def; the IR
// verifier does not check dominance, so a malformed function could read
// an undefined value — a condition the reference interpreter reports as
// a runtime fault. The decoder therefore proves def-before-use with a
// dominance analysis and routes any function it cannot prove to the
// reference interpreter (refOnly), keeping fault behaviour identical at
// zero cost to well-formed code.

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// operand is a pre-resolved instruction input.
type operand struct {
	kind opdKind
	idx  int32  // slot index (opdSlot) or parameter index (opdParam)
	val  uint64 // literal value (opdConst: constants and global addresses)
}

type opdKind uint8

const (
	opdSlot opdKind = iota
	opdConst
	opdParam
)

// dgepTerm is one dynamic index term of a folded GEP.
type dgepTerm struct {
	opd   operand
	scale int64
}

// dgep is a GEP lowered to base + constOff + Σ idx·scale. Address
// arithmetic wraps mod 2^64 and is commutative, so folding every
// constant index into constOff is exact. generic marks the rare shapes
// the fold cannot handle (non-constant struct index, out-of-range field,
// non-pointer base, gep into scalar); those re-run the type walk at
// execution time so faults match the reference interpreter.
type dgep struct {
	constOff uint64
	dyn      []dgepTerm
	generic  bool
}

// dinstr is one decoded instruction. Every dinstr retires one tick
// when it executes.
type dinstr struct {
	op     ir.Op
	site   bool  // a hardening opcode, whose pc every machine counts
	dst    int32 // result slot, -1 when none
	pc     int32 // index into the function's profile
	succ0  int32 // br/condbr target block indices
	succ1  int32
	size   int    // load/store width; sext source width
	umask  uint64 // trunc/zext mask
	aux    int64  // alloca frame offset (-1 when missing from the plan); a phi's scratch slot
	pred   ir.Pred
	args   []operand
	gep    *dgep
	callee *ir.Func
	in     *ir.Instr // original instruction (trace, faults, DFI metadata)
}

// dphi is one decoded phi's incoming edges: (pred block index, operand).
type dphi struct {
	in    *ir.Instr
	preds []int32
	vals  []operand
}

// dblock is one decoded basic block. Its leading phis evaluate in
// parallel against the incoming edge into the scratch slots, then the
// code assigns them in order: code opens with one OpPhi move per phi,
// followed by the block's other instructions up to the first phi
// after a non-phi (latePhi), if any. Control running off the end of
// code is a fault: latePhi's when set, otherwise a fall-through.
type dblock struct {
	b       *ir.Block
	phis    []dphi
	code    []dinstr
	latePhi *ir.Instr
}

// dfunc is the decoded form of one function under one machine.
type dfunc struct {
	f         *ir.Func
	plan      *ir.StackPlan
	frameSize int64
	nslots    int
	maxPhis   int // phi scratch slots appended after the value slots
	blocks    []dblock

	// prof is the function's profile, shared with the reference
	// interpreter.
	prof *profile

	// refOnly routes this function to the reference interpreter: the
	// decoder could not prove def-before-use (or met an operand kind it
	// cannot resolve), so lazy undefined-value faults must be preserved.
	refOnly bool

	// covBase is the function's coverage-hash base (covHash of its
	// name), mixed into every branch-edge bucket index when a Coverage
	// map is armed.
	covBase uint32
}

// decodedFunc returns the cached decoding of f, decoding it on first
// use.
func (m *Machine) decodedFunc(f *ir.Func) *dfunc {
	if d, ok := m.decoded[f]; ok {
		return d
	}
	d := m.decode(f)
	m.decoded[f] = d
	return d
}

// opWritesResult reports the opcodes whose decoded execution writes dst
// unconditionally; an instruction of one of these with no result slot
// (nameless or void-typed) is decodable only by the reference path.
func opWritesResult(op ir.Op) bool {
	switch op {
	case ir.OpAlloca, ir.OpLoad, ir.OpGEP, ir.OpICmp, ir.OpSelect,
		ir.OpPacSign, ir.OpPacAuth, ir.OpPacStrip, ir.OpCheckLoad:
		return true
	}
	return op.IsBinOp() || op.IsCast()
}

// decode lowers f for execution under this machine.
func (m *Machine) decode(f *ir.Func) *dfunc {
	d := &dfunc{f: f, covBase: covHash(f.FName), prof: m.profileOf(f)}
	d.plan = m.planOf(f)
	d.frameSize = frameSize(d.plan)

	g := cfg.New(f)

	blockIdx := make(map[*ir.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = int32(i)
	}
	// slots maps an instruction ID (its pc) to its result slot, -1 when
	// it produces no value.
	ins := d.prof.ins
	slots := make([]int32, len(ins))
	for id, in := range ins {
		slots[id] = -1
		if in.HasResult() {
			slots[id] = int32(d.nslots)
			d.nslots++
		}
	}
	// slotOf returns x's result slot, or -1 when x produces no value or
	// is not one of f's instructions.
	slotOf := func(x *ir.Instr) int32 {
		if x.ID < 0 || x.ID >= len(ins) || ins[x.ID] != x {
			return -1
		}
		return slots[x.ID]
	}

	// safeUse reports whether a use by the instruction with ID use in ub
	// is always executed after def: same block and textually earlier, or
	// the def's block strictly dominates the use's. Uses in unreachable
	// blocks never execute.
	safeUse := func(def *ir.Instr, ub *ir.Block, use int) bool {
		if def.Block == nil {
			return false
		}
		if !g.Reachable(ub) {
			return true
		}
		if def.Block == ub {
			return def.ID < use
		}
		return g.Dominates(def.Block, ub)
	}

	// decodeVal resolves one operand of the instruction with ID use in
	// ub.
	decodeVal := func(v ir.Value, ub *ir.Block, use int) operand {
		switch x := v.(type) {
		case *ir.Const:
			return operand{kind: opdConst, val: uint64(x.Val)}
		case *ir.Global:
			return operand{kind: opdConst, val: m.globalAddrs[x]}
		case *ir.Param:
			return operand{kind: opdParam, idx: int32(x.Index)}
		case *ir.Instr:
			slot := slotOf(x)
			if slot < 0 || !safeUse(x, ub, use) {
				d.refOnly = true
				return operand{}
			}
			return operand{kind: opdSlot, idx: slot}
		default:
			d.refOnly = true
			return operand{}
		}
	}

	// decodePhiVal resolves a phi edge's value: the def must dominate the
	// predecessor block (non-strictly — a def inside the predecessor
	// itself runs before its terminator takes the edge).
	decodePhiVal := func(v ir.Value, phiB, predB *ir.Block) operand {
		x, isInstr := v.(*ir.Instr)
		if !isInstr {
			return decodeVal(v, phiB, 0)
		}
		slot := slotOf(x)
		if slot < 0 || x.Block == nil ||
			(g.Reachable(phiB) && g.Reachable(predB) && !g.Dominates(x.Block, predB)) {
			d.refOnly = true
			return operand{}
		}
		return operand{kind: opdSlot, idx: slot}
	}

	d.blocks = make([]dblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		db := &d.blocks[bi]
		db.b = b
		phis := b.Phis()
		if len(phis) > d.maxPhis {
			d.maxPhis = len(phis)
		}
		db.code = make([]dinstr, 0, len(b.Instrs))
		for i, p := range phis {
			dst := slots[p.ID]
			if dst < 0 {
				d.refOnly = true
			}
			db.code = append(db.code, dinstr{op: ir.OpPhi, dst: dst, pc: int32(p.ID), aux: int64(d.nslots + i), in: p})
			dp := dphi{in: p}
			for _, e := range p.Incoming {
				pi, known := blockIdx[e.Pred]
				if !known {
					pi = -2 // matches no predecessor, including entry (-1)
				}
				dp.preds = append(dp.preds, pi)
				dp.vals = append(dp.vals, decodePhiVal(e.Val, b, e.Pred))
			}
			db.phis = append(db.phis, dp)
		}

		for ii := len(phis); ii < len(b.Instrs); ii++ {
			if b.Instrs[ii].Op == ir.OpPhi {
				db.latePhi = b.Instrs[ii]
				break
			}
			in := b.Instrs[ii]
			db.code = append(db.code, m.decodeInstr(d, slots[in.ID], blockIdx, decodeVal, b, in))
		}
	}
	return d
}

// decodeInstr lowers in, an instruction of b whose result slot is dst.
func (m *Machine) decodeInstr(d *dfunc, dst int32, blockIdx map[*ir.Block]int32,
	decodeVal func(ir.Value, *ir.Block, int) operand, b *ir.Block, in *ir.Instr) dinstr {

	di := dinstr{op: in.Op, site: in.Op.IsHardening(), dst: dst, pc: int32(in.ID), aux: -1, pred: in.Pred, in: in}
	if di.dst < 0 && opWritesResult(in.Op) {
		d.refOnly = true
	}
	if len(in.Args) > 0 {
		di.args = make([]operand, len(in.Args))
		for i, a := range in.Args {
			di.args[i] = decodeVal(a, b, in.ID)
		}
	}

	switch in.Op {
	case ir.OpAlloca:
		if s := d.plan.SlotFor(in); s != nil {
			di.aux = s.Offset
		}
	case ir.OpLoad:
		di.size = int(in.Typ.Size())
	case ir.OpStore:
		di.size = int(in.Args[0].Type().Size())
	case ir.OpTrunc:
		di.umask = widthMask(in.Typ)
	case ir.OpZExt:
		di.umask = widthMask(in.Args[0].Type())
	case ir.OpSExt:
		di.size = int(in.Args[0].Type().Size())
	case ir.OpGEP:
		di.gep = decodeGEP(in, di.args)
	case ir.OpCall:
		di.callee = in.Callee
	case ir.OpBr:
		s0, ok := blockIdx[in.Succs[0]]
		if !ok {
			d.refOnly = true
		}
		di.succ0 = s0
	case ir.OpCondBr:
		s0, ok0 := blockIdx[in.Succs[0]]
		s1, ok1 := blockIdx[in.Succs[1]]
		if !ok0 || !ok1 {
			d.refOnly = true
		}
		di.succ0, di.succ1 = s0, s1
	}
	return di
}

// decodeGEP folds a GEP's type walk at decode time (see dgep).
func decodeGEP(in *ir.Instr, args []operand) *dgep {
	g := &dgep{}
	pt, ok := in.Args[0].Type().(*ir.PtrType)
	if !ok {
		g.generic = true
		return g
	}
	t := pt.Elem
	add := func(o operand, scale int64) {
		if o.kind == opdConst {
			g.constOff += uint64(int64(o.val) * scale)
		} else {
			g.dyn = append(g.dyn, dgepTerm{opd: o, scale: scale})
		}
	}
	// First index scales by the pointee size.
	add(args[1], t.Size())
	for i := 2; i < len(in.Args); i++ {
		switch ct := t.(type) {
		case *ir.ArrayType:
			add(args[i], ct.Elem.Size())
			t = ct.Elem
		case *ir.StructType:
			o := args[i]
			if o.kind != opdConst {
				g.generic = true
				return g
			}
			idx := int64(o.val)
			if idx < 0 || int(idx) >= len(ct.Fields) {
				g.generic = true
				return g
			}
			g.constOff += uint64(ct.Offset(int(idx)))
			t = ct.Fields[idx].Type
		default:
			// gep into scalar: the generic path reproduces the runtime
			// fault with the type reached at that point.
			g.generic = true
			return g
		}
	}
	return g
}
