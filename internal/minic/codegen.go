package minic

import (
	"fmt"

	"repro/internal/inputchan"
	"repro/internal/ir"
)

// Compile parses src and lowers it to an IR module named name. The libc
// surface (package inputchan) is declared automatically.
func Compile(name, src string) (*ir.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(name, prog)
}

// Lower converts a parsed Program into an IR module.
func Lower(name string, prog *Program) (*ir.Module, error) {
	mod := ir.NewModule(name)
	g := &gen{
		mod:     mod,
		structs: make(map[string]*ir.StructType),
		globals: make(map[string]*globalVar),
	}
	inputchan.Declare(mod)

	for _, sd := range prog.Structs {
		st := &ir.StructType{Name: sd.Name}
		g.structs[sd.Name] = st // allow self-referential pointers
		for _, f := range sd.Fields {
			ft, err := g.lowerType(f.Type, f.Pos)
			if err != nil {
				return nil, err
			}
			st.Fields = append(st.Fields, ir.StructField{Name: f.Name, Type: ft})
		}
	}
	for _, gd := range prog.Globals {
		t, err := g.lowerType(gd.Type, gd.Pos)
		if err != nil {
			return nil, err
		}
		var init []byte
		if n, ok := gd.Init.(*Num); ok && n.Val != 0 {
			init = encodeInt(uint64(n.Val), int(t.Size()))
		}
		gv := mod.NewGlobal(gd.Name, t, init)
		g.globals[gd.Name] = &globalVar{g: gv, ct: gd.Type}
	}
	// Two passes over functions so forward calls resolve.
	for _, fd := range prog.Funcs {
		if _, err := g.declareFunc(fd); err != nil {
			return nil, err
		}
	}
	for _, fd := range prog.Funcs {
		if fd.Body == nil {
			continue
		}
		if err := g.genFunc(fd); err != nil {
			return nil, err
		}
	}
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("minic: generated invalid IR: %w", err)
	}
	return mod, nil
}

func encodeInt(v uint64, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n && i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

type globalVar struct {
	g  *ir.Global
	ct *CType
}

type local struct {
	addr ir.Value // alloca (or param shadow slot)
	ct   *CType
}

// gen holds code-generation state for one module.
type gen struct {
	mod     *ir.Module
	structs map[string]*ir.StructType
	globals map[string]*globalVar
	ctypes  map[string]map[string]*CType // func name -> param types (unused externally)

	// per-function state
	f      *ir.Func
	b      *ir.Builder
	scopes []map[string]local
	breaks []*ir.Block
	conts  []*ir.Block
	fctype map[string]*FuncDecl
}

func (g *gen) lowerType(t *CType, pos Pos) (ir.Type, error) {
	switch t.Kind {
	case CInt:
		return ir.I64, nil
	case CChar:
		return ir.I8, nil
	case CVoid:
		return ir.Void, nil
	case CPtr:
		if t.Elem.Kind == CVoid {
			return ir.I8Ptr, nil
		}
		et, err := g.lowerType(t.Elem, pos)
		if err != nil {
			return nil, err
		}
		return ir.PointerTo(et), nil
	case CArray:
		et, err := g.lowerType(t.Elem, pos)
		if err != nil {
			return nil, err
		}
		return ir.ArrayOf(et, t.Len), nil
	case CStruct:
		st, ok := g.structs[t.Struct]
		if !ok {
			return nil, &Error{pos.Line, pos.Col, fmt.Sprintf("unknown struct %q", t.Struct)}
		}
		return st, nil
	}
	return nil, &Error{pos.Line, pos.Col, "unsupported type"}
}

func (g *gen) declareFunc(fd *FuncDecl) (*ir.Func, error) {
	if f := g.mod.Func(fd.Name); f != nil {
		return f, nil // libc or earlier declaration
	}
	ret, err := g.lowerType(fd.Ret, fd.Pos)
	if err != nil {
		return nil, err
	}
	var names []string
	var types []ir.Type
	for _, p := range fd.Params {
		pt, err := g.lowerType(p.Type, p.Pos)
		if err != nil {
			return nil, err
		}
		names = append(names, p.Name)
		types = append(types, pt)
	}
	return g.mod.NewFunc(fd.Name, ret, names, types), nil
}

func (g *gen) errAt(pos Pos, format string, args ...any) error {
	return &Error{pos.Line, pos.Col, fmt.Sprintf(format, args...)}
}

// cval is an rvalue with its C type. Scalars are normalized to i64;
// pointers keep their IR pointer type.
type cval struct {
	v  ir.Value
	ct *CType
}

func (g *gen) genFunc(fd *FuncDecl) error {
	f := g.mod.Func(fd.Name)
	if len(f.Blocks) > 0 {
		return g.errAt(fd.Pos, "redefinition of %s", fd.Name)
	}
	if len(f.Params) != len(fd.Params) {
		return g.errAt(fd.Pos, "%s is defined with %d parameters but declared with %d", fd.Name, len(fd.Params), len(f.Params))
	}
	g.f = f
	entry := f.NewBlock("entry")
	g.b = ir.NewBuilder(f, entry)
	g.scopes = []map[string]local{{}}
	g.breaks, g.conts = nil, nil

	// Spill parameters to shadow slots so & works and the analyses see a
	// uniform memory model (mem2reg re-promotes the scalar ones).
	for i, p := range fd.Params {
		pt, _ := g.lowerType(p.Type, p.Pos)
		slot := g.b.Alloca(p.Name, pt)
		val := ir.Value(f.Params[i])
		g.b.Store(val, slot)
		g.scopes[0][p.Name] = local{addr: slot, ct: p.Type}
	}
	if err := g.genBlock(fd.Body); err != nil {
		return err
	}
	// Seal every unterminated block with a default return.
	for _, blk := range f.Blocks {
		if blk.Terminator() == nil {
			g.b.SetBlock(blk)
			if f.Sig.Ret.Equal(ir.Void) {
				g.b.Ret(nil)
			} else {
				g.b.Ret(ir.ConstInt(ir.I64, 0))
			}
		}
	}
	f.Renumber()
	return nil
}

func (g *gen) pushScope() { g.scopes = append(g.scopes, map[string]local{}) }
func (g *gen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *gen) lookup(name string) (local, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if l, ok := g.scopes[i][name]; ok {
			return l, true
		}
	}
	return local{}, false
}

func (g *gen) genBlock(bs *BlockStmt) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range bs.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
		// Statements after a terminator (e.g. code after return) start a
		// fresh unreachable block to keep the IR well-formed.
		if g.b.Cur.Terminator() != nil {
			g.b.SetBlock(g.f.NewBlock("dead"))
		}
	}
	return nil
}

func (g *gen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return g.genBlock(st)
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := g.genVarDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := g.genExpr(st.X)
		return err
	case *ReturnStmt:
		if st.X == nil {
			g.b.Ret(nil)
			return nil
		}
		v, err := g.genExpr(st.X)
		if err != nil {
			return err
		}
		g.b.Ret(g.coerce(v, g.f.Sig.Ret))
		return nil
	case *IfStmt:
		return g.genIf(st)
	case *WhileStmt:
		return g.genWhile(st)
	case *ForStmt:
		return g.genFor(st)
	case *BreakStmt:
		if len(g.breaks) == 0 {
			return g.errAt(st.Pos, "break outside loop")
		}
		g.b.Br(g.breaks[len(g.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(g.conts) == 0 {
			return g.errAt(st.Pos, "continue outside loop")
		}
		g.b.Br(g.conts[len(g.conts)-1])
		return nil
	}
	return fmt.Errorf("minic: unhandled statement %T", s)
}

func (g *gen) genVarDecl(d *VarDecl) error {
	t, err := g.lowerType(d.Type, d.Pos)
	if err != nil {
		return err
	}
	if t.Equal(ir.Void) {
		return g.errAt(d.Pos, "variable %q has void type", d.Name)
	}
	// Allocas must live in the entry block for the stack planner.
	saved := g.b.Cur
	g.b.SetBlock(g.f.Entry())
	entry := g.f.Entry()
	a := ir.NewInstr(ir.OpAlloca, g.f.GenName(d.Name), ir.PointerTo(t))
	a.AllocTy = t
	if term := entry.Terminator(); term != nil {
		entry.InsertBefore(a, term)
	} else {
		entry.Append(a)
	}
	g.b.SetBlock(saved)
	g.scopes[len(g.scopes)-1][d.Name] = local{addr: a, ct: d.Type}
	if d.Init != nil {
		if d.Type.Kind == CArray {
			// Brace zero-init: the frame is zeroed by the VM already.
			return nil
		}
		v, err := g.genExpr(d.Init)
		if err != nil {
			return err
		}
		g.b.Store(g.coerce(v, t), a)
	}
	return nil
}

func (g *gen) genIf(st *IfStmt) error {
	cond, err := g.genCond(st.Cond)
	if err != nil {
		return err
	}
	then := g.f.NewBlock("then")
	done := g.f.NewBlock("endif")
	els := done
	if st.Else != nil {
		els = g.f.NewBlock("else")
	}
	g.b.CondBr(cond, then, els)
	g.b.SetBlock(then)
	if err := g.genStmt(st.Then); err != nil {
		return err
	}
	if g.b.Cur.Terminator() == nil {
		g.b.Br(done)
	}
	if st.Else != nil {
		g.b.SetBlock(els)
		if err := g.genStmt(st.Else); err != nil {
			return err
		}
		if g.b.Cur.Terminator() == nil {
			g.b.Br(done)
		}
	}
	g.b.SetBlock(done)
	return nil
}

func (g *gen) genWhile(st *WhileStmt) error {
	head := g.f.NewBlock("while")
	body := g.f.NewBlock("body")
	done := g.f.NewBlock("endwhile")
	if st.DoWhile {
		g.b.Br(body)
	} else {
		g.b.Br(head)
	}
	g.b.SetBlock(head)
	cond, err := g.genCond(st.Cond)
	if err != nil {
		return err
	}
	g.b.CondBr(cond, body, done)
	g.b.SetBlock(body)
	g.breaks = append(g.breaks, done)
	g.conts = append(g.conts, head)
	err = g.genStmt(st.Body)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	if err != nil {
		return err
	}
	if g.b.Cur.Terminator() == nil {
		g.b.Br(head)
	}
	g.b.SetBlock(done)
	return nil
}

func (g *gen) genFor(st *ForStmt) error {
	g.pushScope()
	defer g.popScope()
	if st.Init != nil {
		if err := g.genStmt(st.Init); err != nil {
			return err
		}
	}
	head := g.f.NewBlock("for")
	body := g.f.NewBlock("body")
	post := g.f.NewBlock("post")
	done := g.f.NewBlock("endfor")
	g.b.Br(head)
	g.b.SetBlock(head)
	if st.Cond != nil {
		cond, err := g.genCond(st.Cond)
		if err != nil {
			return err
		}
		g.b.CondBr(cond, body, done)
	} else {
		g.b.Br(body)
	}
	g.b.SetBlock(body)
	g.breaks = append(g.breaks, done)
	g.conts = append(g.conts, post)
	err := g.genStmt(st.Body)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	if err != nil {
		return err
	}
	if g.b.Cur.Terminator() == nil {
		g.b.Br(post)
	}
	g.b.SetBlock(post)
	if st.Post != nil {
		if err := g.genStmt(st.Post); err != nil {
			return err
		}
	}
	g.b.Br(head)
	g.b.SetBlock(done)
	return nil
}

// genCond evaluates e as an i1 condition.
func (g *gen) genCond(e Expr) (ir.Value, error) {
	v, err := g.genExpr(e)
	if err != nil {
		return nil, err
	}
	if v.v.Type().Equal(ir.I1) {
		return v.v, nil
	}
	zero := ir.ConstInt(v.v.Type(), 0)
	return g.b.ICmp(ir.PredNE, v.v, zero), nil
}

// coerce converts v to IR type want (i64 <-> i8 <-> pointers are the
// only conversions the subset needs).
func (g *gen) coerce(v cval, want ir.Type) ir.Value {
	have := v.v.Type()
	if have.Equal(want) {
		return v.v
	}
	switch {
	case ir.IsInt(have) && ir.IsInt(want):
		hw := have.(*ir.IntType).Bits
		ww := want.(*ir.IntType).Bits
		if hw > ww {
			return g.b.Cast(ir.OpTrunc, v.v, want)
		}
		return g.b.Cast(ir.OpSExt, v.v, want)
	case ir.IsPtr(have) && ir.IsPtr(want):
		// Pointer casts are free in the simulated machine.
		c := g.b.Cast(ir.OpIntToPtr, v.v, want)
		return c
	case ir.IsInt(have) && ir.IsPtr(want):
		return g.b.Cast(ir.OpIntToPtr, v.v, want)
	case ir.IsPtr(have) && ir.IsInt(want):
		return g.b.Cast(ir.OpPtrToInt, v.v, want)
	}
	return v.v
}
