package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Func
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in immediately before pos. It panics if pos is not
// in the block — that is always a pass bug.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	for i, x := range b.Instrs {
		if x == pos {
			in.Block = b
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = in
			return
		}
	}
	panic(fmt.Sprintf("ir: InsertBefore: %v not in block %s", pos, b.Name))
}

// Remove deletes in from the block. It panics if in is absent.
func (b *Block) Remove(in *Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			in.Block = nil
			return
		}
	}
	panic(fmt.Sprintf("ir: Remove: %v not in block %s", in, b.Name))
}

// Terminator returns the final instruction, or nil for an (invalid)
// unterminated block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks (empty for ret).
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// ChannelKind classifies input-channel functions per Definition 2.1 of
// the paper. KindNone marks ordinary functions.
type ChannelKind int

// The six input-channel categories from §2.6 of the paper.
const (
	KindNone ChannelKind = iota
	KindPrint
	KindScan
	KindMoveCopy
	KindGet
	KindPut
	KindMap
)

var channelKindNames = [...]string{"none", "print", "scan", "move/copy", "get", "put", "map"}

// channelNote introduces the channel kind the printer writes at the end
// of an input channel's declare or define line, and Parse reads back.
const channelNote = " ; input-channel: "

func (k ChannelKind) String() string {
	if k < 0 || int(k) >= len(channelKindNames) {
		return "?"
	}
	return channelKindNames[k]
}

// IsChannel reports whether k names one of the six input-channel classes.
func (k ChannelKind) IsChannel() bool { return k != KindNone }

// StackSlot describes one frame slot in a function's stack plan.
type StackSlot struct {
	Alloca *Instr // the alloca this slot backs; nil for canary slots
	Offset int64  // byte offset from frame base (low address)
	Size   int64
	Canary bool // true when the slot holds a Pythia canary
	Vuln   bool // true when the slot was classified vulnerable (Alg. 3)
	Sealed bool // true when the slot is a CPA [value|PAC] pair
}

// StackPlan is the frame layout the VM materialises for each call. The
// Pythia stack re-layout pass replaces the default plan so vulnerable
// buffers sit at the bottom (low addresses) with PA-signed canaries
// between them (paper §4.3).
type StackPlan struct {
	Slots []StackSlot
	Size  int64 // total frame bytes
}

// SlotFor returns the slot backing the given alloca, or nil.
func (p *StackPlan) SlotFor(a *Instr) *StackSlot {
	for i := range p.Slots {
		if p.Slots[i].Alloca == a {
			return &p.Slots[i]
		}
	}
	return nil
}

// Func is a function definition or declaration (empty Blocks).
type Func struct {
	FName  string
	Sig    *FuncType
	Params []*Param
	Blocks []*Block
	Parent *Module

	// Channel classifies the function as an input channel (Def. 2.1).
	// Declarations such as strcpy/scanf carry the libc classification;
	// the front end's last pass, irpass.Optimize, classifies user
	// wrappers (inputchan.Classify), and no later stage writes it.
	Channel ChannelKind

	// Plan is the stack layout; nil means "default order" (the VM lays
	// allocas out in declaration order). The Pythia pass installs a
	// re-ordered plan with canary slots.
	Plan *StackPlan

	// Attrs carries free-form function annotations set by passes.
	Attrs map[string]string

	nextName int
	nextBlk  int
}

// IsDecl reports whether f has no body (an external declaration).
func (f *Func) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with a unique name derived from hint.
func (f *Func) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "bb"
	}
	name := hint + strconv.Itoa(f.nextBlk)
	f.nextBlk++
	b := &Block{Name: name, Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// GenName returns a fresh SSA value name derived from hint.
func (f *Func) GenName(hint string) string {
	if hint == "" {
		hint = "t"
	}
	name := hint + "." + strconv.Itoa(f.nextName)
	f.nextName++
	return name
}

// Renumber sets every instruction's ID to its position in block order.
// The front end and the hardening passes call it on what they build;
// every later stage reads the IDs and writes none (see Instr.ID).
func (f *Func) Renumber() {
	id := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ID = id
			id++
		}
	}
}

// NumInstrs returns the static instruction count of the body.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Allocas returns every alloca in the function (they may only appear in
// the entry block, which the verifier enforces).
func (f *Func) Allocas() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAlloca {
				out = append(out, in)
			}
		}
	}
	return out
}

// Branches returns every conditional branch in the function — the
// starting points of branch decomposition (Alg. 1).
func (f *Func) Branches() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpCondBr {
				out = append(out, in)
			}
		}
	}
	return out
}

// String renders the function in textual IR form.
func (f *Func) String() string {
	var b strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %%%s", p.Typ, p.PName)
	}
	if f.Sig.Variadic {
		params = append(params, "...")
	}
	if f.IsDecl() {
		fmt.Fprintf(&b, "declare %s @%s(%s)", f.Sig.Ret, f.FName, strings.Join(params, ", "))
	} else {
		fmt.Fprintf(&b, "define %s @%s(%s) {", f.Sig.Ret, f.FName, strings.Join(params, ", "))
	}
	if f.Channel.IsChannel() {
		fmt.Fprintf(&b, "%s%s", channelNote, f.Channel)
	}
	b.WriteString("\n")
	if f.IsDecl() {
		return b.String()
	}
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			if in.Op.IsCast() {
				// Parse needs a cast's destination type; the one-line
				// form flight windows show leaves it out.
				fmt.Fprintf(&b, "  %s to %s\n", in, in.Typ)
				continue
			}
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Module is a compilation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	funcIndex map[string]*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcIndex: make(map[string]*Func)}
}

// NewFunc creates and registers a function with the given signature.
func (m *Module) NewFunc(name string, ret Type, paramNames []string, paramTypes []Type) *Func {
	f := &Func{
		FName:  name,
		Sig:    &FuncType{Params: paramTypes, Ret: ret},
		Parent: m,
	}
	for i, pn := range paramNames {
		f.Params = append(f.Params, &Param{PName: pn, Typ: paramTypes[i], Index: i, Parent: f})
	}
	m.Funcs = append(m.Funcs, f)
	m.funcIndex[name] = f
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	return m.funcIndex[name]
}

// NewGlobal creates and registers a module-level variable.
func (m *Module) NewGlobal(name string, elem Type, init []byte) *Global {
	g := &Global{GName: name, Elem: elem, Init: init}
	m.Globals = append(m.Globals, g)
	return g
}

// StringLit interns a NUL-terminated string literal as a global and
// returns it. Identical literals share one global.
func (m *Module) StringLit(s string) *Global {
	name := fmt.Sprintf("str.%d", len(m.Globals))
	for _, g := range m.Globals {
		if g.Str == s && g.Str != "" {
			return g
		}
	}
	data := append([]byte(s), 0)
	g := m.NewGlobal(name, ArrayOf(I8, int64(len(data))), data)
	g.Str = s
	return g
}

// Defined returns the functions that have bodies, in declaration order.
func (m *Module) Defined() []*Func {
	var out []*Func
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			out = append(out, f)
		}
	}
	return out
}

// NumInstrs returns the static instruction count across all bodies —
// the paper's proxy for binary size (Fig. 4b).
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// String renders the whole module.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; module %s\n", m.Name)
	for _, g := range m.Globals {
		switch {
		case g.Str != "":
			fmt.Fprintf(&b, "@%s = global %s c%q\n", g.GName, g.Elem, g.Str)
		case len(g.Init) > 0:
			var v uint64
			for i := 0; i < len(g.Init) && i < 8; i++ {
				v |= uint64(g.Init[i]) << (8 * i)
			}
			fmt.Fprintf(&b, "@%s = global %s %d\n", g.GName, g.Elem, int64(v))
		default:
			fmt.Fprintf(&b, "@%s = global %s\n", g.GName, g.Elem)
		}
	}
	for _, f := range m.Funcs {
		b.WriteString("\n")
		b.WriteString(f.String())
	}
	return b.String()
}
