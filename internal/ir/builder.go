package ir

import "fmt"

// Builder appends instructions at a cursor position, generating fresh SSA
// names. It is the construction API used by the MiniC front-end, the
// workload generator, and the hardening passes.
type Builder struct {
	F   *Func
	Cur *Block
}

// NewBuilder returns a builder positioned at the end of block b.
func NewBuilder(f *Func, b *Block) *Builder { return &Builder{F: f, Cur: b} }

// SetBlock moves the cursor to the end of b.
func (bld *Builder) SetBlock(b *Block) { bld.Cur = b }

func (bld *Builder) emit(in *Instr) *Instr {
	if bld.Cur == nil {
		panic("ir: Builder has no current block")
	}
	return bld.Cur.Append(in)
}

// Alloca allocates a stack slot of type t and returns its address value.
func (bld *Builder) Alloca(hint string, t Type) *Instr {
	in := NewInstr(OpAlloca, bld.F.GenName(hint), PointerTo(t))
	in.AllocTy = t
	return bld.emit(in)
}

// Load reads a value of addr's pointee type.
func (bld *Builder) Load(addr Value) *Instr {
	et := Elem(addr.Type())
	if et == nil {
		panic(fmt.Sprintf("ir: load from non-pointer %s", addr.Type()))
	}
	return bld.emit(NewInstr(OpLoad, bld.F.GenName("ld"), et, addr))
}

// Store writes val through addr.
func (bld *Builder) Store(val, addr Value) *Instr {
	return bld.emit(NewInstr(OpStore, "", Void, val, addr))
}

// GEP computes base + indices scaled by element sizes. The result type
// follows LLVM getelementptr semantics for our type zoo: the first index
// steps in units of the pointee; subsequent indices descend into
// aggregates.
func (bld *Builder) GEP(base Value, indices ...Value) *Instr {
	t := base.Type()
	pt, ok := t.(*PtrType)
	if !ok {
		panic(fmt.Sprintf("ir: gep on non-pointer %s", t))
	}
	cur := pt.Elem
	for _, idx := range indices[1:] {
		switch ct := cur.(type) {
		case *ArrayType:
			cur = ct.Elem
		case *StructType:
			c, isConst := idx.(*Const)
			if !isConst {
				panic("ir: struct gep index must be constant")
			}
			cur = ct.Fields[c.Val].Type
		default:
			panic(fmt.Sprintf("ir: gep into scalar %s", cur))
		}
	}
	args := append([]Value{base}, indices...)
	return bld.emit(NewInstr(OpGEP, bld.F.GenName("gep"), PointerTo(cur), args...))
}

// Bin emits a binary arithmetic/logic instruction.
func (bld *Builder) Bin(op Op, a, b Value) *Instr {
	if !op.IsBinOp() {
		panic(fmt.Sprintf("ir: %s is not a binary op", op))
	}
	return bld.emit(NewInstr(op, bld.F.GenName("t"), a.Type(), a, b))
}

// ICmp emits a comparison producing an i1.
func (bld *Builder) ICmp(p Pred, a, b Value) *Instr {
	in := NewInstr(OpICmp, bld.F.GenName("cmp"), I1, a, b)
	in.Pred = p
	return bld.emit(in)
}

// Cast emits a conversion to type t.
func (bld *Builder) Cast(op Op, v Value, t Type) *Instr {
	if !op.IsCast() {
		panic(fmt.Sprintf("ir: %s is not a cast", op))
	}
	return bld.emit(NewInstr(op, bld.F.GenName("cv"), t, v))
}

// Br emits an unconditional branch.
func (bld *Builder) Br(target *Block) *Instr {
	in := NewInstr(OpBr, "", Void)
	in.Succs = []*Block{target}
	return bld.emit(in)
}

// CondBr emits a two-way conditional branch on cond.
func (bld *Builder) CondBr(cond Value, then, els *Block) *Instr {
	in := NewInstr(OpCondBr, "", Void, cond)
	in.Succs = []*Block{then, els}
	return bld.emit(in)
}

// Phi emits an (initially empty) phi of type t; edges are added with
// AddIncoming.
func (bld *Builder) Phi(t Type) *Instr {
	return bld.emit(NewInstr(OpPhi, bld.F.GenName("phi"), t))
}

// Call emits a call to callee.
func (bld *Builder) Call(callee *Func, args ...Value) *Instr {
	name := ""
	if !callee.Sig.Ret.Equal(Void) {
		name = bld.F.GenName("call")
	}
	in := NewInstr(OpCall, name, callee.Sig.Ret, args...)
	in.Callee = callee
	return bld.emit(in)
}

// Ret emits a return; pass nil for void functions.
func (bld *Builder) Ret(v Value) *Instr {
	if v == nil {
		return bld.emit(NewInstr(OpRet, "", Void))
	}
	return bld.emit(NewInstr(OpRet, "", Void, v))
}

// Select emits cond ? a : b.
func (bld *Builder) Select(cond, a, b Value) *Instr {
	return bld.emit(NewInstr(OpSelect, bld.F.GenName("sel"), a.Type(), cond, a, b))
}

// AddIncoming appends an edge to a phi instruction.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Incoming = append(phi.Incoming, PhiEdge{Val: v, Pred: pred})
}
