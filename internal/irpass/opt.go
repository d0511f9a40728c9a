package irpass

import (
	"repro/internal/inputchan"
	"repro/internal/ir"
)

// ConstFold evaluates instructions whose operands are all constants,
// replaces their uses and deletes what that leaves dead. It returns the
// number of instructions folded.
//
// Each sweep resolves an instruction's operands through the fold table
// as it visits it, so a chain folds in one sweep when its uses follow
// its definitions in block order; a sweep that folds nothing new has
// rewritten every operand, and ends the loop.
func ConstFold(f *ir.Func) int {
	instrs := numbered(f)
	fold := make([]*ir.Const, len(instrs))
	folded := 0
	for changed := true; changed; {
		changed = false
		for _, in := range instrs {
			if fold[in.ID] != nil {
				continue
			}
			for i, a := range in.Args {
				if id := idOf(instrs, a); id >= 0 && fold[id] != nil {
					in.Args[i] = fold[id]
				}
			}
			for i, e := range in.Incoming {
				if id := idOf(instrs, e.Val); id >= 0 && fold[id] != nil {
					in.Incoming[i].Val = fold[id]
				}
			}
			if c := foldInstr(in); c != nil {
				fold[in.ID] = c
				folded++
				changed = true
			}
		}
	}
	if folded > 0 {
		DeadCodeElim(f)
	}
	return folded
}

func foldInstr(in *ir.Instr) *ir.Const {
	if in.Op.IsBinOp() {
		a, aok := in.Args[0].(*ir.Const)
		b, bok := in.Args[1].(*ir.Const)
		if !aok || !bok {
			return nil
		}
		var v int64
		switch in.Op {
		case ir.OpAdd:
			v = a.Val + b.Val
		case ir.OpSub:
			v = a.Val - b.Val
		case ir.OpMul:
			v = a.Val * b.Val
		case ir.OpSDiv:
			if b.Val == 0 {
				return nil
			}
			v = a.Val / b.Val
		case ir.OpSRem:
			if b.Val == 0 {
				return nil
			}
			v = a.Val % b.Val
		case ir.OpAnd:
			v = a.Val & b.Val
		case ir.OpOr:
			v = a.Val | b.Val
		case ir.OpXor:
			v = a.Val ^ b.Val
		case ir.OpShl:
			v = a.Val << uint(b.Val&63)
		case ir.OpAShr:
			v = a.Val >> uint(b.Val&63)
		}
		return ir.ConstInt(in.Typ, v)
	}
	if in.Op == ir.OpICmp {
		a, aok := in.Args[0].(*ir.Const)
		b, bok := in.Args[1].(*ir.Const)
		if !aok || !bok {
			return nil
		}
		var r bool
		switch in.Pred {
		case ir.PredEQ:
			r = a.Val == b.Val
		case ir.PredNE:
			r = a.Val != b.Val
		case ir.PredLT:
			r = a.Val < b.Val
		case ir.PredLE:
			r = a.Val <= b.Val
		case ir.PredGT:
			r = a.Val > b.Val
		case ir.PredGE:
			r = a.Val >= b.Val
		}
		if r {
			return ir.ConstInt(ir.I1, 1)
		}
		return ir.ConstInt(ir.I1, 0)
	}
	return nil
}

// DeadCodeElim removes value-producing instructions with no uses and no
// side effects. Returns the number removed.
//
// It counts each instruction's uses once; an operand that is not an
// instruction of f counts for nothing. A worklist then removes every
// pure instruction whose count is zero, and lowers its operands' counts:
// removal only lowers counts, so this is the fixpoint of removing dead
// instructions round after round.
func DeadCodeElim(f *ir.Func) int {
	instrs := numbered(f)
	uses := make([]int32, len(instrs))
	for _, in := range instrs {
		for _, a := range in.Args {
			if id := idOf(instrs, a); id >= 0 {
				uses[id]++
			}
		}
		for _, e := range in.Incoming {
			if id := idOf(instrs, e.Val); id >= 0 {
				uses[id]++
			}
		}
	}
	var work []*ir.Instr
	for _, in := range instrs {
		if uses[in.ID] == 0 && isPure(in) {
			work = append(work, in)
		}
	}
	dead := make([]bool, len(instrs))
	removed := 0
	release := func(v ir.Value) {
		if id := idOf(instrs, v); id >= 0 {
			if uses[id]--; uses[id] == 0 && isPure(instrs[id]) {
				work = append(work, instrs[id])
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		dead[in.ID] = true
		removed++
		for _, a := range in.Args {
			release(a)
		}
		for _, e := range in.Incoming {
			release(e.Val)
		}
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !dead[in.ID] {
				kept = append(kept, in)
			}
		}
		// Every block gets a fresh slice sized by append: what
		// fieldCanariesInFunc emits depends on the spare capacity of the
		// blocks it inserts into, so that capacity is part of the output.
		b.Instrs = append([]*ir.Instr(nil), kept...)
	}
	f.Renumber()
	return removed
}

func isPure(in *ir.Instr) bool {
	switch {
	case in.Op.IsBinOp(), in.Op.IsCast():
		return true
	}
	switch in.Op {
	case ir.OpICmp, ir.OpGEP, ir.OpSelect, ir.OpPhi, ir.OpLoad:
		// Loads are pure in the IR sense here: removing an unused load is
		// safe because the simulated machine has no volatile memory.
		return true
	}
	return false
}

// Optimize runs the standard pipeline: mem2reg, folding, DCE. It mirrors
// the paper's -O3 + mem2reg preprocessing before the security passes run.
// As the front end's last step it classifies the module's wrapper
// channels: only the optimized code shows a wrapper that forwards its
// parameter through a local copy, which mem2reg promotes away.
func Optimize(m *ir.Module) {
	for _, f := range m.Defined() {
		Mem2Reg(f)
		ConstFold(f)
		DeadCodeElim(f)
	}
	inputchan.Classify(m)
}
