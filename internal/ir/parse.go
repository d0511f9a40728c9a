package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse reads the textual IR form produced by Module.String back into a
// module, enabling round-trip tests, IR-level fixtures, and offline
// inspection of instrumented modules. The grammar is exactly the
// printer's output language; Parse(m.String()) must reproduce m up to
// SSA naming.
func Parse(text string) (*Module, error) {
	p := &irParser{mod: NewModule("parsed")}
	if err := p.run(text); err != nil {
		return nil, err
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return p.mod, nil
}

type irParser struct {
	mod *Module

	// per-function state
	f      *Func
	blocks map[string]*Block
	values map[string]Value
	// pendingPhis resolve the phi edge values, which the text may name
	// before defining them, at the function's closing brace. Blocks
	// named before their label are created on first use instead.
	pendingPhis []func() error
	line        int
}

func (p *irParser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *irParser) run(text string) error {
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		p.line = i + 1
		ln := strings.TrimSpace(lines[i])
		switch {
		case ln == "" || strings.HasPrefix(ln, ";"):
		case strings.HasPrefix(ln, "@"):
			if err := p.global(ln); err != nil {
				return err
			}
		case strings.HasPrefix(ln, "declare "):
			if _, err := p.signature(strings.TrimPrefix(ln, "declare ")); err != nil {
				return err
			}
		case strings.HasPrefix(ln, "define "):
			end, err := p.function(lines, i)
			if err != nil {
				return err
			}
			i = end
		default:
			return p.errf("unexpected top-level line %q", ln)
		}
	}
	return nil
}

// global parses `@name = global <type>` with an optional c"..." literal.
func (p *irParser) global(ln string) error {
	parts := strings.SplitN(ln, "=", 2)
	if len(parts) != 2 {
		return p.errf("malformed global %q", ln)
	}
	name := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(parts[0]), "@"))
	rest := strings.TrimSpace(parts[1])
	if !strings.HasPrefix(rest, "global ") {
		return p.errf("global %q missing keyword", name)
	}
	rest = strings.TrimSpace(strings.TrimPrefix(rest, "global "))
	var lit string
	if i := strings.Index(rest, ` c"`); i >= 0 {
		q, err := strconv.Unquote(strings.TrimSpace(rest[i+2:]))
		if err != nil {
			return p.errf("bad string literal: %v", err)
		}
		lit = q
		rest = strings.TrimSpace(rest[:i])
	}
	// Optional trailing integer initializer: `@g = global i64 7`.
	var numInit []byte
	if sp := strings.LastIndexByte(rest, ' '); sp > 0 {
		if n, err := strconv.ParseInt(rest[sp+1:], 10, 64); err == nil {
			numInit = make([]byte, 8)
			for i := 0; i < 8; i++ {
				numInit[i] = byte(uint64(n) >> (8 * i))
			}
			rest = strings.TrimSpace(rest[:sp])
		}
	}
	typ, err := p.parseType(rest)
	if err != nil {
		return err
	}
	init := numInit
	if lit != "" {
		init = append([]byte(lit), 0)
	}
	g := p.mod.NewGlobal(name, typ, init)
	g.Str = lit
	return nil
}

// signature parses `<ret> @name(<type> %p, ...)`, registering the
// function and the input-channel kind the printer notes after it;
// returns it for define to fill.
func (p *irParser) signature(s string) (*Func, error) {
	s, note, noted := strings.Cut(s, channelNote)
	kind := KindNone
	if noted {
		if kind = ChannelKind(slices.Index(channelKindNames[:], note)); kind <= KindNone {
			return nil, p.errf("unknown input-channel kind %q", note)
		}
	}
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return nil, p.errf("malformed signature %q", s)
	}
	head := strings.TrimSpace(s[:open])
	at := strings.LastIndex(head, "@")
	if at < 0 {
		return nil, p.errf("signature missing @name: %q", s)
	}
	ret, err := p.parseType(strings.TrimSpace(head[:at]))
	if err != nil {
		return nil, err
	}
	name := strings.TrimSpace(head[at+1:])
	var pnames []string
	var ptypes []Type
	variadic := false
	for _, arg := range splitArgs(s[open+1 : close]) {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		if arg == "..." {
			variadic = true
			continue
		}
		sp := strings.LastIndex(arg, " %")
		if sp < 0 {
			return nil, p.errf("malformed parameter %q", arg)
		}
		pt, err := p.parseType(strings.TrimSpace(arg[:sp]))
		if err != nil {
			return nil, err
		}
		ptypes = append(ptypes, pt)
		pnames = append(pnames, arg[sp+2:])
	}
	f := p.mod.Func(name)
	if f == nil {
		f = p.mod.NewFunc(name, ret, pnames, ptypes)
	}
	f.Sig.Variadic = f.Sig.Variadic || variadic
	if kind.IsChannel() {
		f.Channel = kind
	}
	return f, nil
}

// function parses a define block; returns the index of its closing line.
func (p *irParser) function(lines []string, start int) (int, error) {
	head := strings.TrimSpace(lines[start])
	head = strings.TrimPrefix(head, "define ")
	if i := strings.LastIndexByte(head, '{'); i >= 0 {
		head = head[:i] + head[i+1:] // the body's brace, before any note
	}
	f, err := p.signature(strings.TrimSpace(head))
	if err != nil {
		return 0, err
	}
	p.f = f
	p.blocks = make(map[string]*Block)
	p.values = make(map[string]Value)
	p.pendingPhis = nil
	for _, prm := range f.Params {
		p.values[prm.PName] = prm
	}

	i := start + 1
	var cur *Block
	var labelOrder []*Block
	for ; i < len(lines); i++ {
		p.line = i + 1
		ln := strings.TrimSpace(lines[i])
		switch {
		case ln == "}":
			for _, resolve := range p.pendingPhis {
				if err := resolve(); err != nil {
					return 0, err
				}
			}
			// Blocks created by forward references were appended in
			// reference order; restore the label order of the source.
			if len(labelOrder) == len(f.Blocks) {
				f.Blocks = labelOrder
			}
			f.Renumber()
			return i, nil
		case ln == "" || strings.HasPrefix(ln, ";"):
		case strings.HasSuffix(ln, ":"):
			cur = p.block(strings.TrimSuffix(ln, ":"))
			labelOrder = append(labelOrder, cur)
		default:
			if cur == nil {
				return 0, p.errf("instruction before any block label")
			}
			if err := p.instr(cur, ln); err != nil {
				return 0, err
			}
		}
	}
	return 0, p.errf("unterminated function @%s", f.FName)
}

// block returns (creating if needed) the named block.
func (p *irParser) block(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := &Block{Name: name, Parent: p.f}
	p.f.Blocks = append(p.f.Blocks, b)
	p.blocks[name] = b
	return b
}

// forwardBlock resolves a label that may not have been seen yet.
func (p *irParser) forwardBlock(name string) *Block { return p.block(name) }

var opByName = func() map[string]Op {
	m := make(map[string]Op)
	for op := OpAlloca; op < opMax; op++ {
		m[op.String()] = op
	}
	return m
}()

var predByName = map[string]Pred{
	"eq": PredEQ, "ne": PredNE, "slt": PredLT, "sle": PredLE, "sgt": PredGT, "sge": PredGE,
}

// instr parses one instruction line into cur.
func (p *irParser) instr(cur *Block, ln string) error {
	name := ""
	if strings.HasPrefix(ln, "%") {
		eq := strings.Index(ln, " = ")
		if eq < 0 {
			return p.errf("malformed definition %q", ln)
		}
		name = ln[1:eq]
		ln = ln[eq+3:]
	}
	sp := strings.IndexByte(ln, ' ')
	opName := ln
	rest := ""
	if sp >= 0 {
		opName = ln[:sp]
		rest = strings.TrimSpace(ln[sp+1:])
	}
	op, ok := opByName[opName]
	if !ok {
		return p.errf("unknown opcode %q", opName)
	}
	in := NewInstr(op, name, nil)
	defer func() {
		if name != "" {
			p.values[name] = in
		}
	}()

	switch op {
	case OpAlloca:
		t, err := p.parseType(rest)
		if err != nil {
			return err
		}
		in.AllocTy = t
		in.Typ = PointerTo(t)

	case OpLoad:
		parts := splitArgs(rest)
		if len(parts) != 2 {
			return p.errf("load wants `T, addr`")
		}
		t, err := p.parseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return err
		}
		addr, err := p.operand(strings.TrimSpace(parts[1]), nil)
		if err != nil {
			return err
		}
		in.Typ = t
		in.Args = []Value{addr}

	case OpStore:
		args, err := p.operands(rest, I64)
		if err != nil {
			return err
		}
		in.Args = args

	case OpICmp:
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return p.errf("icmp wants predicate")
		}
		pred, ok := predByName[rest[:sp]]
		if !ok {
			return p.errf("unknown predicate %q", rest[:sp])
		}
		in.Pred = pred
		args, err := p.operands(rest[sp+1:], I64)
		if err != nil {
			return err
		}
		in.Args = args
		in.Typ = I1

	case OpBr:
		lbl := strings.TrimPrefix(strings.TrimSpace(rest), "label %")
		in.Succs = []*Block{p.forwardBlock(lbl)}

	case OpCondBr:
		parts := splitArgs(rest)
		if len(parts) != 3 {
			return p.errf("condbr wants cond, then, else")
		}
		cond, err := p.operand(strings.TrimSpace(parts[0]), I1)
		if err != nil {
			return err
		}
		in.Args = []Value{cond}
		t := strings.TrimPrefix(strings.TrimSpace(parts[1]), "label %")
		e := strings.TrimPrefix(strings.TrimSpace(parts[2]), "label %")
		in.Succs = []*Block{p.forwardBlock(t), p.forwardBlock(e)}

	case OpPhi:
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return p.errf("phi wants a type")
		}
		t, err := p.parseType(rest[:sp])
		if err != nil {
			return err
		}
		in.Typ = t
		edges := rest[sp+1:]
		for _, e := range splitArgs(edges) {
			e = strings.TrimSpace(e)
			e = strings.TrimPrefix(e, "[")
			e = strings.TrimSuffix(e, "]")
			ve := strings.SplitN(e, ",", 2)
			if len(ve) != 2 {
				return p.errf("malformed phi edge %q", e)
			}
			valText := strings.TrimSpace(ve[0])
			predName := strings.TrimPrefix(strings.TrimSpace(ve[1]), "%")
			edge := PhiEdge{Pred: p.forwardBlock(predName)}
			in.Incoming = append(in.Incoming, edge)
			idx := len(in.Incoming) - 1
			inst := in
			typ := t
			p.pendingPhis = append(p.pendingPhis, func() error {
				v, err := p.operand(valText, typ)
				if err != nil {
					return err
				}
				inst.Incoming[idx].Val = v
				return nil
			})
		}

	case OpCall:
		// call <ret> @name(args)
		at := strings.Index(rest, "@")
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if at < 0 || open < at || close < open {
			return p.errf("malformed call %q", rest)
		}
		ret, err := p.parseType(strings.TrimSpace(rest[:at]))
		if err != nil {
			return err
		}
		callee := p.mod.Func(strings.TrimSpace(rest[at+1 : open]))
		if callee == nil {
			return p.errf("call to undeclared @%s", strings.TrimSpace(rest[at+1:open]))
		}
		in.Callee = callee
		in.Typ = ret
		for i, a := range splitArgs(rest[open+1 : close]) {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			var hint Type = I64
			if i < len(callee.Sig.Params) {
				hint = callee.Sig.Params[i]
			}
			v, err := p.operand(a, hint)
			if err != nil {
				return err
			}
			in.Args = append(in.Args, v)
		}

	case OpRet:
		rest = strings.TrimSpace(rest)
		if rest != "void" && rest != "" {
			v, err := p.operand(rest, p.f.Sig.Ret)
			if err != nil {
				return err
			}
			in.Args = []Value{v}
		}

	case OpGEP:
		args, err := p.operands(rest, I64)
		if err != nil {
			return err
		}
		in.Args = args
		base, ok := args[0].Type().(*PtrType)
		if !ok {
			return p.errf("gep base is not a pointer")
		}
		cur := base.Elem
		for _, idx := range args[2:] {
			switch ct := cur.(type) {
			case *ArrayType:
				cur = ct.Elem
			case *StructType:
				c, isConst := idx.(*Const)
				if !isConst {
					return p.errf("struct gep index must be constant")
				}
				cur = ct.Fields[c.Val].Type
			default:
				return p.errf("gep into scalar")
			}
		}
		in.Typ = PointerTo(cur)

	case OpSetDef:
		// dfi.setdef #N, addr
		parts := splitArgs(rest)
		if len(parts) != 2 {
			return p.errf("setdef wants #id, addr")
		}
		id, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(parts[0]), "#"))
		if err != nil {
			return p.errf("bad def id: %v", err)
		}
		in.DefID = id
		addr, err := p.operand(strings.TrimSpace(parts[1]), nil)
		if err != nil {
			return err
		}
		in.Args = []Value{addr}

	case OpChkDef:
		// dfi.chkdef addr, [ids...]
		br := strings.Index(rest, "[")
		addrText := strings.TrimSuffix(strings.TrimSpace(rest[:br]), ",")
		addr, err := p.operand(strings.TrimSpace(addrText), nil)
		if err != nil {
			return err
		}
		in.Args = []Value{addr}
		for _, idText := range strings.Split(strings.Trim(rest[br:], "[] "), " ") {
			if idText == "" {
				continue
			}
			id, err := strconv.Atoi(idText)
			if err != nil {
				return p.errf("bad allowed id %q", idText)
			}
			in.Allowed = append(in.Allowed, id)
		}

	default:
		// Uniform `op a, b, ...` instructions: binops, casts (`op a to
		// T`), PA ops, canary ops, select, seal/check.
		if op.IsCast() {
			val, to, ok := strings.Cut(rest, " to ")
			if !ok {
				return p.errf("%s wants `v to T`", op)
			}
			t, err := p.parseType(to)
			if err != nil {
				return err
			}
			rest, in.Typ = val, t
		}
		args, err := p.operands(rest, I64)
		if err != nil {
			return err
		}
		in.Args = args
		switch {
		case op.IsBinOp():
			in.Typ = args[0].Type()
		case op == OpSelect:
			in.Typ = args[1].Type()
		case op == OpCheckLoad:
			in.Typ = I64
		case op == OpPacSign || op == OpPacAuth || op == OpPacStrip:
			in.Typ = args[0].Type()
		}
	}
	cur.Append(in)
	return nil
}

// operands parses a comma-separated operand list.
func (p *irParser) operands(s string, hint Type) ([]Value, error) {
	var out []Value
	for _, a := range splitArgs(s) {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		v, err := p.operand(a, hint)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// operand resolves %name, @name, or an integer constant.
func (p *irParser) operand(s string, hint Type) (Value, error) {
	switch {
	case strings.HasPrefix(s, "%"):
		v, ok := p.values[s[1:]]
		if !ok {
			return nil, p.errf("use of undefined value %s", s)
		}
		return v, nil
	case strings.HasPrefix(s, "@"):
		for _, g := range p.mod.Globals {
			if g.GName == s[1:] {
				return g, nil
			}
		}
		return nil, p.errf("unknown global %s", s)
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, p.errf("bad operand %q", s)
		}
		if hint == nil {
			hint = I64
		}
		return ConstInt(hint, n), nil
	}
}

// parseType parses i1/i8/.../T*/[N x T]/void.
func (p *irParser) parseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "void":
		return Void, nil
	case strings.HasSuffix(s, "*"):
		el, err := p.parseType(s[:len(s)-1])
		if err != nil {
			return nil, err
		}
		return PointerTo(el), nil
	case strings.HasPrefix(s, "["):
		inner := strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
		parts := strings.SplitN(inner, " x ", 2)
		if len(parts) != 2 {
			return nil, p.errf("malformed array type %q", s)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, p.errf("bad array length in %q", s)
		}
		el, err := p.parseType(parts[1])
		if err != nil {
			return nil, err
		}
		return ArrayOf(el, n), nil
	case strings.HasPrefix(s, "i"):
		bits, err := strconv.Atoi(s[1:])
		if err != nil {
			return nil, p.errf("bad int type %q", s)
		}
		return &IntType{Bits: bits}, nil
	}
	return nil, p.errf("unsupported type %q", s)
}

// splitArgs splits on commas at bracket depth zero.
func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
