package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		typ  ir.Type
		size int64
		str  string
	}{
		{ir.I1, 1, "i1"},
		{ir.I8, 1, "i8"},
		{ir.I32, 4, "i32"},
		{ir.I64, 8, "i64"},
		{ir.PointerTo(ir.I64), 8, "i64*"},
		{ir.ArrayOf(ir.I8, 48), 48, "[48 x i8]"},
		{ir.ArrayOf(ir.I64, 8), 64, "[8 x i64]"},
		{ir.Void, 0, "void"},
	}
	for _, c := range cases {
		if c.typ.Size() != c.size {
			t.Errorf("%s: size %d, want %d", c.str, c.typ.Size(), c.size)
		}
		if c.typ.String() != c.str {
			t.Errorf("String() = %q, want %q", c.typ.String(), c.str)
		}
	}
}

func TestStructLayout(t *testing.T) {
	st := &ir.StructType{Name: "rec", Fields: []ir.StructField{
		{Name: "key", Type: ir.I64},
		{Name: "tag", Type: ir.I8},
		{Name: "val", Type: ir.I64},
	}}
	if st.Size() != 17 {
		t.Fatalf("size = %d, want 17 (packed)", st.Size())
	}
	if st.Offset(0) != 0 || st.Offset(1) != 8 || st.Offset(2) != 9 {
		t.Fatalf("offsets = %d,%d,%d", st.Offset(0), st.Offset(1), st.Offset(2))
	}
	if st.FieldIndex("val") != 2 || st.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex broken")
	}
}

func TestTypeEquality(t *testing.T) {
	if !ir.PointerTo(ir.I8).Equal(ir.PointerTo(ir.I8)) {
		t.Fatal("identical pointer types unequal")
	}
	if ir.PointerTo(ir.I8).Equal(ir.PointerTo(ir.I64)) {
		t.Fatal("distinct pointer types equal")
	}
	if ir.ArrayOf(ir.I8, 4).Equal(ir.ArrayOf(ir.I8, 5)) {
		t.Fatal("distinct array lengths equal")
	}
	if ir.I64.Equal(ir.Void) {
		t.Fatal("i64 equals void")
	}
}

// buildRet constructs: define i64 @f(i64 %x) { ret (x+1)*2 }
func buildRet(t *testing.T) (*ir.Module, *ir.Func) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64, []string{"x"}, []ir.Type{ir.I64})
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	sum := b.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I64, 1))
	dbl := b.Bin(ir.OpMul, sum, ir.ConstInt(ir.I64, 2))
	b.Ret(dbl)
	f.Renumber()
	return m, f
}

func TestBuilderAndVerify(t *testing.T) {
	m, f := buildRet(t)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if n := f.NumInstrs(); n != 3 {
		t.Fatalf("NumInstrs = %d, want 3", n)
	}
	text := f.String()
	for _, want := range []string{"define i64 @f(i64 %x)", "add", "mul", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed func missing %q:\n%s", want, text)
		}
	}
}

func TestVerifyRejects(t *testing.T) {
	build := func(mut func(m *ir.Module, f *ir.Func, b *ir.Builder)) error {
		m := ir.NewModule("bad")
		f := m.NewFunc("f", ir.Void, nil, nil)
		b := ir.NewBuilder(f, f.NewBlock("entry"))
		mut(m, f, b)
		f.Renumber() // so each case fails for its own reason
		return ir.Verify(m)
	}
	cases := []struct {
		name string
		mut  func(m *ir.Module, f *ir.Func, b *ir.Builder)
		want string // part of the error, when the case pins it
	}{
		{"empty-block", func(m *ir.Module, f *ir.Func, b *ir.Builder) {}, ""},
		{"no-terminator", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Alloca("x", ir.I64)
		}, ""},
		{"alloca-outside-entry", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			next := f.NewBlock("bb")
			b.Br(next)
			b.SetBlock(next)
			b.Alloca("x", ir.I64)
			b.Ret(nil)
		}, ""},
		{"ret-value-in-void", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Cur.Append(ir.NewInstr(ir.OpRet, "", ir.Void, ir.ConstInt(ir.I64, 1)))
		}, ""},
		{"terminator-mid-block", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Ret(nil)
			b.Ret(nil)
		}, ""},
		{"load-from-int", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			in := ir.NewInstr(ir.OpLoad, "v", ir.I64, ir.ConstInt(ir.I64, 5))
			b.Cur.Append(in)
			b.Ret(nil)
		}, ""},
		{"call-arity", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			g := m.NewFunc("g", ir.Void, []string{"a"}, []ir.Type{ir.I64})
			call := ir.NewInstr(ir.OpCall, "", ir.Void)
			call.Callee = g
			b.Cur.Append(call)
			b.Ret(nil)
		}, ""},
		{"deleted-operand", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			x := b.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
			b.Bin(ir.OpMul, x, ir.ConstInt(ir.I64, 3))
			b.Ret(nil)
			b.Cur.Remove(x) // the mul still reads it
		}, "not an instruction of this function"},
		{"gep-before-alloca", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			s := b.Alloca("s", ir.I64)
			g := b.GEP(s, ir.ConstInt(ir.I64, 0))
			b.Ret(nil)
			b.Cur.Remove(g)
			b.Cur.InsertBefore(g, s) // a field address taken ahead of its alloca
		}, "defined at or after its use"},
		{"foreign-phi-value", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			g := m.NewFunc("g", ir.I64, nil, nil)
			gb := ir.NewBuilder(g, g.NewBlock("entry"))
			other := gb.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
			gb.Ret(other)
			g.Renumber()
			next := f.NewBlock("bb")
			b.Br(next)
			b.SetBlock(next)
			ir.AddIncoming(b.Phi(ir.I64), other, f.Entry())
			b.Ret(nil)
		}, "not an instruction of this function"},
		{"phi-edge-count", func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			next := f.NewBlock("bb")
			b.Br(next)
			b.SetBlock(next)
			b.Phi(ir.I64) // 1 pred, 0 edges
			b.Ret(nil)
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := build(c.mut)
			if err == nil {
				t.Fatal("verifier accepted invalid IR")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to say %q", err, c.want)
			}
		})
	}
}

func TestBlockEditing(t *testing.T) {
	_, f := buildRet(t)
	entry := f.Entry()
	add := entry.Instrs[0]
	nop := ir.NewInstr(ir.OpAdd, f.GenName("n"), ir.I64, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0))
	entry.InsertBefore(nop, add)
	if entry.Instrs[0] != nop {
		t.Fatal("InsertBefore misplaced")
	}
	entry.Remove(nop)
	if entry.Instrs[0] != add {
		t.Fatal("Remove broke order")
	}
}

// editFunc builds f(x) = entry: a = x+1; b = a*2; br join. join:
// p = phi [a, entry]; ret p. It returns the instructions by name.
func editFunc(t *testing.T) (*ir.Module, *ir.Func, map[string]*ir.Instr) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64, []string{"x"}, []ir.Type{ir.I64})
	entry, join := f.NewBlock("entry"), f.NewBlock("join")
	b := ir.NewBuilder(f, entry)
	in := map[string]*ir.Instr{}
	in["a"] = b.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I64, 1))
	in["b"] = b.Bin(ir.OpMul, in["a"], ir.ConstInt(ir.I64, 2))
	b.Br(join)
	b.SetBlock(join)
	in["p"] = b.Phi(ir.I64)
	ir.AddIncoming(in["p"], in["a"], entry)
	b.Ret(in["p"])
	in["a"].Nam, in["b"].Nam, in["p"].Nam = "a", "b", "p"
	f.Renumber()
	return m, f, in
}

// TestEdits pins the edit list's rules: insertions before one anchor
// land in queue order, groups after one anchor land in reverse queue
// order, a removed anchor keeps what is queued around it, and a
// replacement reaches operands, phi edges and queued instructions.
// Apply leaves every original instruction's ID as it was.
func TestEdits(t *testing.T) {
	n := func(name string, args ...ir.Value) *ir.Instr {
		for len(args) < 2 {
			args = append(args, ir.ConstInt(ir.I64, 0))
		}
		return ir.NewInstr(ir.OpAdd, name, ir.I64, args...)
	}
	cases := []struct {
		name string
		edit func(ed *ir.Edits, in map[string]*ir.Instr)
		want string
	}{
		{"none", func(ed *ir.Edits, in map[string]*ir.Instr) {},
			"a b br | p ret"},
		{"before-in-queue-order", func(ed *ir.Edits, in map[string]*ir.Instr) {
			ed.Before(in["b"], n("n1"))
			ed.Before(in["b"], n("n2"), n("n3"))
		}, "a n1 n2 n3 b br | p ret"},
		{"after-groups-reversed", func(ed *ir.Edits, in map[string]*ir.Instr) {
			ed.After(in["a"], n("n1"), n("n2"))
			ed.After(in["a"], n("n3"))
			ed.After(in["a"], n("n4"), n("n5"))
		}, "a n4 n5 n3 n1 n2 b br | p ret"},
		{"before-and-after", func(ed *ir.Edits, in map[string]*ir.Instr) {
			ed.After(in["a"], n("n1"))
			ed.Before(in["a"], n("n2"))
			ed.Before(in["b"], n("n3"))
			ed.After(in["p"], n("n4"))
		}, "n2 a n1 n3 b br | p n4 ret"},
		{"remove-keeps-neighbours", func(ed *ir.Edits, in map[string]*ir.Instr) {
			ed.Before(in["b"], n("n1"))
			ed.Remove(in["b"])
			ed.After(in["b"], n("n2"))
		}, "a n1 n2 br | p ret"},
		{"replace", func(ed *ir.Edits, in map[string]*ir.Instr) {
			c := ir.NewInstr(ir.OpSub, "c", ir.I64, in["a"].Args[0], ir.ConstInt(ir.I64, 1))
			ed.Before(in["a"], c)
			ed.Remove(in["a"])
			ed.Replace(in["a"], c)
			ed.After(in["b"], n("n1", in["a"], in["b"]))
		}, "c b(c) n1(c,b) br | p(c) ret(p)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, f, in := editFunc(t)
			ids := make(map[*ir.Instr]int)
			for _, b := range f.Blocks {
				for _, x := range b.Instrs {
					ids[x] = x.ID
				}
			}
			ed := ir.NewEdits(f)
			c.edit(ed, in)
			ed.Apply()
			// Render each block as its instructions' names; a case
			// that replaces also shows every instruction's operands.
			showArgs := strings.Contains(c.want, "(")
			var blocks []string
			for _, b := range f.Blocks {
				var names []string
				for _, x := range b.Instrs {
					if x.Block != b {
						t.Errorf("%s is in block %s but points at %v", x, b.Name, x.Block)
					}
					if id, ok := ids[x]; ok && x.ID != id {
						t.Errorf("%s: ID %d, want %d", x, x.ID, id)
					}
					name := x.Nam
					if name == "" {
						name = x.Op.String()
					}
					var ops []string
					for _, a := range x.Args {
						if _, ok := a.(*ir.Instr); ok {
							ops = append(ops, a.Name())
						}
					}
					for _, e := range x.Incoming {
						ops = append(ops, e.Val.Name())
					}
					if showArgs && len(ops) > 0 {
						name += "(" + strings.Join(ops, ",") + ")"
					}
					names = append(names, name)
				}
				blocks = append(blocks, strings.Join(names, " "))
			}
			if got := strings.Join(blocks, " | "); got != c.want {
				t.Fatalf("got  %s\nwant %s", got, c.want)
			}
			f.Renumber()
			if err := ir.Verify(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEditsRejectForeignAnchor: an anchor that is not in the function
// is a pass bug, and Apply panics on it.
func TestEditsRejectForeignAnchor(t *testing.T) {
	_, f, _ := editFunc(t)
	ed := ir.NewEdits(f)
	ed.Before(ir.NewInstr(ir.OpAdd, "lost", ir.I64), ir.NewInstr(ir.OpAdd, "n", ir.I64))
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted an anchor outside the function")
		}
	}()
	ed.Apply()
}

// TestRenumber: an inserted instruction leaves the function unnumbered,
// which Verify rejects, until Renumber restores block-order IDs.
func TestRenumber(t *testing.T) {
	m, f := buildRet(t)
	zero := ir.ConstInt(ir.I64, 0)
	f.Entry().InsertBefore(ir.NewInstr(ir.OpAdd, f.GenName("n"), ir.I64, zero, zero), f.Entry().Instrs[0])
	if err := ir.Verify(m); err == nil || !strings.Contains(err.Error(), "not numbered") {
		t.Fatalf("Verify on an unnumbered function = %v, want a numbering error", err)
	}
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID != want {
				t.Fatalf("instr ID %d, want %d", in.ID, want)
			}
			want++
		}
	}
}

func TestStringInterning(t *testing.T) {
	m := ir.NewModule("t")
	a := m.StringLit("hello")
	b := m.StringLit("hello")
	c := m.StringLit("world")
	if a != b {
		t.Fatal("identical literals not interned")
	}
	if a == c {
		t.Fatal("distinct literals shared")
	}
	if a.Elem.Size() != 6 { // includes NUL
		t.Fatalf("literal size %d, want 6", a.Elem.Size())
	}
}

func TestOpClassification(t *testing.T) {
	if !ir.OpPacSign.IsPA() || !ir.OpCheckLoad.IsPA() || !ir.OpObjSeal.IsPA() {
		t.Fatal("PA ops misclassified")
	}
	if ir.OpLoad.IsPA() || ir.OpCanarySet.IsPA() {
		t.Fatal("non-PA op classified as PA")
	}
	if !ir.OpCanaryCheck.IsHardening() || !ir.OpSetDef.IsHardening() {
		t.Fatal("hardening ops misclassified")
	}
	if !ir.OpBr.IsTerminator() || !ir.OpRet.IsTerminator() || ir.OpCall.IsTerminator() {
		t.Fatal("terminator classification broken")
	}
	if !ir.OpAdd.IsBinOp() || ir.OpICmp.IsBinOp() {
		t.Fatal("binop classification broken")
	}
	if !ir.OpTrunc.IsCast() || ir.OpAdd.IsCast() {
		t.Fatal("cast classification broken")
	}
}

func TestStackPlanSlotFor(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	a1 := b.Alloca("a", ir.I64)
	b.Ret(nil)
	plan := &ir.StackPlan{Slots: []ir.StackSlot{{Alloca: a1, Offset: 16, Size: 8}}, Size: 24}
	if s := plan.SlotFor(a1); s == nil || s.Offset != 16 {
		t.Fatal("SlotFor lookup broken")
	}
	other := ir.NewInstr(ir.OpAlloca, "z", ir.PointerTo(ir.I64))
	if plan.SlotFor(other) != nil {
		t.Fatal("SlotFor should miss unknown allocas")
	}
}

func TestChannelKindStrings(t *testing.T) {
	if ir.KindMoveCopy.String() != "move/copy" || ir.KindNone.String() != "none" {
		t.Fatal("channel kind names wrong")
	}
	if ir.KindNone.IsChannel() || !ir.KindScan.IsChannel() {
		t.Fatal("IsChannel broken")
	}
}

func TestSelfReferentialStructEquality(t *testing.T) {
	// struct node { i64 val; node *next } — Equal must terminate and
	// compare nominally.
	node := &ir.StructType{Name: "node"}
	node.Fields = []ir.StructField{
		{Name: "val", Type: ir.I64},
		{Name: "next", Type: ir.PointerTo(node)},
	}
	if !node.Equal(node) {
		t.Fatal("self-equality must hold")
	}
	other := &ir.StructType{Name: "node", Fields: node.Fields}
	if !node.Equal(other) {
		t.Fatal("same-named structs with equal arity must be equal")
	}
	diff := &ir.StructType{Name: "edge", Fields: node.Fields}
	if node.Equal(diff) {
		t.Fatal("differently-named structs must differ")
	}
}
