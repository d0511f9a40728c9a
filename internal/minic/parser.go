package minic

import "fmt"

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks    []Token
	pos     int
	structs map[string]bool // known struct tags, for declaration detection
}

// Parse converts source text into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, structs: make(map[string]bool)}
	return p.program()
}

// cur returns the token under the cursor. A rule may step over the EOF
// token without looking at it (a brace initializer skips its element),
// so past the end of the stream cur keeps returning EOF.
func (p *Parser) cur() Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token { t := p.cur(); p.pos++; return t }

func (p *Parser) peekIs(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.peekIs(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.peekIs(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return t, &Error{t.Line, t.Col, fmt.Sprintf("expected %q, found %q", text, t.String())}
}

func (p *Parser) errAt(t Token, format string, args ...any) error {
	return &Error{t.Line, t.Col, fmt.Sprintf(format, args...)}
}

func posOf(t Token) Pos { return Pos{t.Line, t.Col} }

// program parses the whole translation unit.
func (p *Parser) program() (*Program, error) {
	prog := &Program{}
	for !p.peekIs(TokEOF, "") {
		p.accept(TokKeyword, "extern") // extern is accepted and ignored
		if p.peekIs(TokKeyword, "struct") && p.toks[p.pos+1].Kind == TokIdent &&
			p.toks[p.pos+2].Kind == TokPunct && p.toks[p.pos+2].Text == "{" {
			sd, err := p.structDecl()
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, sd)
			continue
		}
		base, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		// Could be a function or global variable(s).
		save := p.pos
		typ, name, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if p.peekIs(TokPunct, "(") {
			fd, err := p.funcRest(typ, name)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fd)
			continue
		}
		p.pos = save
		decls, err := p.varDeclList(base)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, decls...)
	}
	return prog, nil
}

func (p *Parser) structDecl() (*StructDecl, error) {
	kw := p.next() // struct
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if nameTok.Kind != TokIdent {
		return nil, p.errAt(nameTok, "expected struct tag")
	}
	p.structs[nameTok.Text] = true
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	sd := &StructDecl{Pos: posOf(kw), Name: nameTok.Text}
	for !p.accept(TokPunct, "}") {
		base, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		decls, err := p.varDeclList(base)
		if err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, decls...)
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
	}
	p.accept(TokPunct, ";")
	return sd, nil
}

// typeSpec parses a base type: int/char/long/void/size_t/struct T.
func (p *Parser) typeSpec() (*CType, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errAt(t, "expected type, found %q", t.String())
	}
	switch t.Text {
	case "int", "long", "size_t":
		p.next()
		p.accept(TokKeyword, "int") // "long int"
		return TypeInt, nil
	case "char":
		p.next()
		return TypeChar, nil
	case "void":
		p.next()
		return TypeVoid, nil
	case "struct":
		p.next()
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &CType{Kind: CStruct, Struct: nameTok.Text}, nil
	}
	return nil, p.errAt(t, "expected type, found %q", t.String())
}

// isTypeStart reports whether the current token begins a declaration.
func (p *Parser) isTypeStart() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "int", "char", "long", "void", "struct", "size_t", "extern":
		return true
	}
	return false
}

// declarator parses pointer stars, a name, and array suffixes.
func (p *Parser) declarator(base *CType) (*CType, Token, error) {
	typ := base
	for p.accept(TokPunct, "*") {
		typ = Ptr(typ)
	}
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, nameTok, err
	}
	// Array suffixes apply outside-in: char buf[4][8] — keep simple 1-D
	// plus nested by recursion.
	var lens []int64
	for p.accept(TokPunct, "[") {
		szTok := p.cur()
		var n int64
		if szTok.Kind == TokNumber {
			p.next()
			n = szTok.Val
		} else {
			return nil, nameTok, p.errAt(szTok, "expected constant array length")
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, nameTok, err
		}
		lens = append(lens, n)
	}
	for i := len(lens) - 1; i >= 0; i-- {
		typ = &CType{Kind: CArray, Elem: typ, Len: lens[i]}
	}
	return typ, nameTok, nil
}

// varDeclList parses "decl, decl, ..." with optional initializers.
func (p *Parser) varDeclList(base *CType) ([]*VarDecl, error) {
	var out []*VarDecl
	for {
		typ, nameTok, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		vd := &VarDecl{Pos: posOf(nameTok), Name: nameTok.Text, Type: typ}
		if p.accept(TokPunct, "=") {
			if p.peekIs(TokPunct, "{") {
				// Brace initializer: we support {0} / {'\0'} zero-fills.
				p.next()
				if !p.peekIs(TokPunct, "}") {
					p.next() // single element, must be zero-ish
				}
				if _, err := p.expect(TokPunct, "}"); err != nil {
					return nil, err
				}
				vd.Init = &Num{Pos: vd.Pos, Val: 0}
			} else {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				vd.Init = e
			}
		}
		out = append(out, vd)
		if !p.accept(TokPunct, ",") {
			return out, nil
		}
	}
}

func (p *Parser) funcRest(ret *CType, nameTok Token) (*FuncDecl, error) {
	fd := &FuncDecl{Pos: posOf(nameTok), Name: nameTok.Text, Ret: ret}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if !p.accept(TokPunct, ")") {
		if p.accept(TokKeyword, "void") && p.peekIs(TokPunct, ")") {
			// f(void)
		} else {
			for {
				if p.accept(TokPunct, "...") {
					break
				}
				base, err := p.typeSpec()
				if err != nil {
					return nil, err
				}
				typ, pn, err := p.declarator(base)
				if err != nil {
					return nil, err
				}
				// Array parameters decay to pointers, as in C.
				if typ.Kind == CArray {
					typ = Ptr(typ.Elem)
				}
				fd.Params = append(fd.Params, &VarDecl{Pos: posOf(pn), Name: pn.Text, Type: typ})
				if !p.accept(TokPunct, ",") {
					break
				}
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if p.accept(TokPunct, ";") {
		return fd, nil // declaration only
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *Parser) block() (*BlockStmt, error) {
	lb, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	bs := &BlockStmt{Pos: posOf(lb)}
	for !p.accept(TokPunct, "}") {
		if p.peekIs(TokEOF, "") {
			return nil, p.errAt(p.cur(), "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		bs.Stmts = append(bs.Stmts, s)
	}
	return bs, nil
}

func (p *Parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.peekIs(TokPunct, "{"):
		return p.block()
	case p.peekIs(TokPunct, ";"):
		p.next()
		return &BlockStmt{Pos: posOf(t)}, nil
	case p.isTypeStart() && t.Text != "void":
		p.accept(TokKeyword, "extern")
		base, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		decls, err := p.varDeclList(base)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &DeclStmt{Pos: posOf(t), Decls: decls}, nil
	case p.peekIs(TokKeyword, "if"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Pos: posOf(t), Cond: cond, Then: then}
		if p.accept(TokKeyword, "else") {
			els, err := p.stmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case p.peekIs(TokKeyword, "while"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: posOf(t), Cond: cond, Body: body}, nil
	case p.peekIs(TokKeyword, "do"):
		p.next()
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "while"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: posOf(t), Cond: cond, Body: body, DoWhile: true}, nil
	case p.peekIs(TokKeyword, "for"):
		return p.forStmt()
	case p.peekIs(TokKeyword, "return"):
		p.next()
		st := &ReturnStmt{Pos: posOf(t)}
		if !p.peekIs(TokPunct, ";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.X = e
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return st, nil
	case p.peekIs(TokKeyword, "break"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: posOf(t)}, nil
	case p.peekIs(TokKeyword, "continue"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: posOf(t)}, nil
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: posOf(t), X: e}, nil
	}
}

func (p *Parser) forStmt() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: posOf(t)}
	if !p.peekIs(TokPunct, ";") {
		if p.isTypeStart() {
			base, err := p.typeSpec()
			if err != nil {
				return nil, err
			}
			decls, err := p.varDeclList(base)
			if err != nil {
				return nil, err
			}
			st.Init = &DeclStmt{Pos: posOf(t), Decls: decls}
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{Pos: posOf(t), X: e}
		}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ";") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cond = e
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ")") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Post = &ExprStmt{Pos: posOf(t), X: e}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// expr parses a comma-free expression (comma appears only in arg lists
// and for clauses in our subset).
func (p *Parser) expr() (Expr, error) { return p.assignExpr() }

func (p *Parser) assignExpr() (Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
			p.next()
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{Pos: posOf(t), Op: t.Text, LHS: lhs, RHS: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *Parser) condExpr() (Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.peekIs(TokPunct, "?") {
		q := p.next()
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		b, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{Pos: posOf(q), C: c, A: a, B: b}, nil
	}
	return c, nil
}

// binary operator precedence (C levels).
var precTable = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := precTable[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: posOf(t), Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) unaryExpr() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "*", "&", "+":
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{Pos: posOf(t), Op: t.Text, X: x}, nil
		case "++", "--":
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &IncDec{Pos: posOf(t), Op: t.Text, X: x, Prefix: true}, nil
		case "(":
			// Cast? Only "(type)" casts — detect a type keyword after (.
			if p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text != "NULL" && p.toks[p.pos+1].Text != "sizeof" {
				p.next()
				base, err := p.typeSpec()
				if err != nil {
					return nil, err
				}
				typ := base
				for p.accept(TokPunct, "*") {
					typ = Ptr(typ)
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				// Casts are value-preserving in our 64-bit model: parse
				// and discard, keeping the operand.
				return p.unaryExpr()
			}
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		base, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		typ := base
		for p.accept(TokPunct, "*") {
			typ = Ptr(typ)
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return &SizeofType{Pos: posOf(t), T: typ}, nil
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{Pos: posOf(t), X: x, Idx: idx}
		case ".":
			p.next()
			f, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: posOf(t), X: x, Field: f.Text}
		case "->":
			p.next()
			f, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: posOf(t), X: x, Field: f.Text, Arrow: true}
		case "++", "--":
			p.next()
			x = &IncDec{Pos: posOf(t), Op: t.Text, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) primaryExpr() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TokNumber, TokChar:
		return &Num{Pos: posOf(t), Val: t.Val}, nil
	case TokString:
		return &Str{Pos: posOf(t), Val: t.Text}, nil
	case TokKeyword:
		if t.Text == "NULL" {
			return &Num{Pos: posOf(t), Val: 0}, nil
		}
		return nil, p.errAt(t, "unexpected keyword %q in expression", t.Text)
	case TokIdent:
		if p.peekIs(TokPunct, "(") {
			p.next()
			call := &Call{Pos: posOf(t), Name: t.Text}
			if !p.accept(TokPunct, ")") {
				for {
					a, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(TokPunct, ",") {
						break
					}
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &Ident{Pos: posOf(t), Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errAt(t, "unexpected token %q", t.String())
}
