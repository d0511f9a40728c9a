package ir

import "fmt"

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, functions, and value-producing
// instructions.
type Value interface {
	// Name returns the SSA name used when printing (without sigil).
	Name() string
	// Type returns the type of the value.
	Type() Type
	// Operand returns the textual operand form ("%x", "42", "@g").
	Operand() string
}

// Const is an integer constant. Pointer-typed constants are permitted
// (e.g. null) and hold the raw address in Val.
type Const struct {
	Typ Type
	Val int64
}

// ConstInt returns an integer constant of the given type.
func ConstInt(t Type, v int64) *Const { return &Const{Typ: t, Val: v} }

func (c *Const) Name() string { return fmt.Sprintf("%d", c.Val) }
func (c *Const) Type() Type   { return c.Typ }
func (c *Const) Operand() string {
	return fmt.Sprintf("%d", c.Val)
}

// Global is a module-level variable. Its value is the *address* of the
// storage, so its type is a pointer to the declared type, exactly like
// LLVM globals.
type Global struct {
	GName string
	Elem  Type   // the pointee type
	Init  []byte // optional initial bytes (zero-filled if shorter)
	Str   string // set when the global was created from a string literal

	// Sealed marks a scalar global widened to a [value|PAC] pair by the
	// CPA pass; the loader writes the initial MAC.
	Sealed bool
}

func (g *Global) Name() string    { return g.GName }
func (g *Global) Type() Type      { return PointerTo(g.Elem) }
func (g *Global) Operand() string { return "@" + g.GName }

// Param is a formal parameter of a function.
type Param struct {
	PName  string
	Typ    Type
	Index  int
	Parent *Func
}

func (p *Param) Name() string    { return p.PName }
func (p *Param) Type() Type      { return p.Typ }
func (p *Param) Operand() string { return "%" + p.PName }
