package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of the module and returns an error
// describing the first violation found in each function (joined).
// Invariants enforced:
//
//   - every block ends in exactly one terminator, and terminators appear
//     only at block ends;
//   - allocas appear only in the entry block;
//   - phis appear only at block starts, with one edge per predecessor;
//   - operand and successor counts match each opcode;
//   - loads/stores/geps take pointer operands;
//   - calls match callee arity (variadic callees accept extra args);
//   - every instruction's ID is its position in block order (Renumber);
//   - every operand and phi value that is an instruction is one of the
//     function's own, and a non-phi operand in its user's block comes
//     before its user.
func Verify(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := verifyFunc(f); err != nil {
			errs = append(errs, fmt.Errorf("func @%s: %w", f.FName, err))
		}
	}
	return errors.Join(errs...)
}

func verifyFunc(f *Func) error {
	preds := make(map[*Block][]*Block)
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	// instrs indexes the function's instructions by ID, so an operand
	// is one of them exactly when instrs[ID] is that operand.
	instrs := make([]*Instr, 0, f.NumInstrs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID != len(instrs) {
				return fmt.Errorf("block %%%s: %s: id %d, want %d (not numbered)", b.Name, in, in.ID, len(instrs))
			}
			instrs = append(instrs, in)
		}
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %%%s is empty", b.Name)
		}
		term := b.Instrs[len(b.Instrs)-1]
		if !term.Op.IsTerminator() {
			return fmt.Errorf("block %%%s does not end in a terminator (ends in %s)", b.Name, term.Op)
		}
		seenNonPhi := false
		end := term.ID + 1 // one past the block's last id
		for ii, in := range b.Instrs {
			if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("block %%%s: terminator %s mid-block", b.Name, in.Op)
			}
			if in.Op == OpPhi {
				if seenNonPhi {
					return fmt.Errorf("block %%%s: phi after non-phi", b.Name)
				}
			} else {
				seenNonPhi = true
			}
			if err := verifyOperands(instrs, in, end); err != nil {
				return fmt.Errorf("block %%%s: %s: %w", b.Name, in, err)
			}
			if err := verifyInstr(f, b, in, bi, preds, inFunc); err != nil {
				return fmt.Errorf("block %%%s: %s: %w", b.Name, in, err)
			}
		}
	}
	return nil
}

// verifyOperands rejects an operand or phi value that is an instruction
// of another function, or one that was deleted from this one, and an
// operand that in's own block defines at or after in; that block's ids
// end before end.
func verifyOperands(instrs []*Instr, in *Instr, end int) error {
	foreign := func(v Value) bool {
		x, ok := v.(*Instr)
		return ok && (x.ID < 0 || x.ID >= len(instrs) || instrs[x.ID] != x)
	}
	for i, a := range in.Args {
		if foreign(a) {
			return fmt.Errorf("operand %d %s is not an instruction of this function", i, a.Operand())
		}
		if x, ok := a.(*Instr); ok && x.ID >= in.ID && x.ID < end {
			return fmt.Errorf("operand %d %s is defined at or after its use", i, a.Operand())
		}
	}
	for _, e := range in.Incoming {
		if foreign(e.Val) {
			return fmt.Errorf("phi value %s is not an instruction of this function", e.Val.Operand())
		}
	}
	return nil
}

func verifyInstr(f *Func, b *Block, in *Instr, blockIdx int, preds map[*Block][]*Block, inFunc map[*Block]bool) error {
	for i, a := range in.Args {
		if a == nil {
			return fmt.Errorf("nil operand %d", i)
		}
	}
	for _, s := range in.Succs {
		if !inFunc[s] {
			return fmt.Errorf("successor %%%s not in function", s.Name)
		}
	}
	switch in.Op {
	case OpAlloca:
		if blockIdx != 0 {
			return errors.New("alloca outside entry block")
		}
		if in.AllocTy == nil {
			return errors.New("alloca without allocated type")
		}
		if !IsPtr(in.Typ) {
			return errors.New("alloca result must be a pointer")
		}
	case OpLoad:
		if len(in.Args) != 1 || !IsPtr(in.Args[0].Type()) {
			return errors.New("load needs one pointer operand")
		}
	case OpStore:
		if len(in.Args) != 2 || !IsPtr(in.Args[1].Type()) {
			return errors.New("store needs (value, pointer)")
		}
	case OpGEP:
		if len(in.Args) < 2 || !IsPtr(in.Args[0].Type()) {
			return errors.New("gep needs pointer base and ≥1 index")
		}
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpAShr:
		if len(in.Args) != 2 {
			return fmt.Errorf("%s needs two operands", in.Op)
		}
	case OpICmp:
		if len(in.Args) != 2 {
			return errors.New("icmp needs two operands")
		}
		if !in.Typ.Equal(I1) {
			return errors.New("icmp result must be i1")
		}
	case OpBr:
		if len(in.Succs) != 1 {
			return errors.New("br needs one successor")
		}
	case OpCondBr:
		if len(in.Succs) != 2 || len(in.Args) != 1 {
			return errors.New("condbr needs condition and two successors")
		}
	case OpPhi:
		if len(in.Incoming) != len(preds[b]) {
			return fmt.Errorf("phi has %d edges, block has %d predecessors", len(in.Incoming), len(preds[b]))
		}
		for _, e := range in.Incoming {
			found := false
			for _, p := range preds[b] {
				if p == e.Pred {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("phi edge from non-predecessor %%%s", e.Pred.Name)
			}
		}
	case OpCall:
		if in.Callee == nil {
			return errors.New("call without callee")
		}
		np := len(in.Callee.Sig.Params)
		if in.Callee.Sig.Variadic {
			if len(in.Args) < np {
				return fmt.Errorf("call to @%s: %d args < %d params", in.Callee.FName, len(in.Args), np)
			}
		} else if len(in.Args) != np {
			return fmt.Errorf("call to @%s: %d args != %d params", in.Callee.FName, len(in.Args), np)
		}
	case OpRet:
		wantVoid := f.Sig.Ret.Equal(Void)
		if wantVoid && len(in.Args) != 0 {
			return errors.New("ret with value in void function")
		}
		if !wantVoid && len(in.Args) != 1 {
			return errors.New("ret without value in non-void function")
		}
	case OpPacSign, OpPacAuth:
		if len(in.Args) != 2 {
			return fmt.Errorf("%s needs (pointer, modifier)", in.Op)
		}
	case OpPacStrip:
		if len(in.Args) != 1 {
			return errors.New("pac.strip needs one operand")
		}
	case OpSealStore:
		if len(in.Args) != 2 || !IsPtr(in.Args[1].Type()) {
			return errors.New("seal.store needs (value, pointer)")
		}
	case OpCheckLoad:
		if len(in.Args) != 1 || !IsPtr(in.Args[0].Type()) {
			return errors.New("check.load needs one pointer operand")
		}
	case OpObjSeal, OpObjCheck:
		if len(in.Args) != 2 || !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("%s needs (pointer, size)", in.Op)
		}
	case OpCanarySet, OpCanaryCheck:
		if len(in.Args) != 1 || !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("%s needs one pointer operand", in.Op)
		}
	case OpSetDef:
		if len(in.Args) != 1 {
			return errors.New("dfi.setdef needs an address operand")
		}
	case OpChkDef:
		if len(in.Args) != 1 {
			return errors.New("dfi.chkdef needs an address operand")
		}
	case OpSelect:
		if len(in.Args) != 3 {
			return errors.New("select needs three operands")
		}
	case OpTrunc, OpZExt, OpSExt, OpPtrToInt, OpIntToPtr:
		if len(in.Args) != 1 {
			return fmt.Errorf("%s needs one operand", in.Op)
		}
	default:
		return fmt.Errorf("unknown opcode %d", int(in.Op))
	}
	return nil
}
