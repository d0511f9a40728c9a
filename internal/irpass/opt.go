package irpass

import (
	"repro/internal/inputchan"
	"repro/internal/ir"
)

// ConstFold evaluates instructions whose operands are all constants and
// replaces their uses, returning the number of instructions folded.
func ConstFold(f *ir.Func) int {
	folded := 0
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				c := foldInstr(in)
				if c == nil {
					continue
				}
				replaceUses(f, in, c)
				changed = true
				folded++
			}
		}
		if changed {
			folded -= DeadCodeElim(f) - folded // DCE count not double-reported
			folded = max(folded, 0)
			DeadCodeElim(f)
		}
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
func DeadCodeElim(f *ir.Func) int {
	removed := 0
	for {
		used := make(map[ir.Value]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					used[a] = true
				}
				for _, e := range in.Incoming {
					used[e.Val] = true
				}
			}
		}
		n := 0
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if isPure(in) && !used[ir.Value(in)] {
					n++
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = append([]*ir.Instr(nil), kept...)
		}
		removed += n
		if n == 0 {
			break
		}
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
		f.Renumber()
	}
	inputchan.Classify(m)
}
