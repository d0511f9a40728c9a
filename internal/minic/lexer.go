// Package minic implements a small C front-end (lexer, recursive-descent
// parser, type checker, IR code generator) sufficient to compile the
// paper's motivating listings and the synthetic benchmark programs:
// int/char scalars, pointers, fixed arrays, structs, the usual operators
// including pointer arithmetic, control flow, and calls into the libc
// surface declared by package inputchan.
package minic

import (
	"fmt"
	"strings"
)

// TokKind enumerates token categories.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokChar
	TokPunct
	TokKeyword
)

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokKind
	Text string
	Val  int64 // numeric / char value
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"int": true, "char": true, "long": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
	"struct": true, "sizeof": true, "extern": true, "size_t": true,
	"do": true, "NULL": true,
}

// Error is a front-end diagnostic with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Lex tokenizes src. It strips // and /* */ comments and preprocessor
// lines (#define SIZE is handled by simple substitution of object-like
// macros).
func Lex(src string) ([]Token, error) {
	src, err := expandMacros(src)
	if err != nil {
		return nil, err
	}
	var toks []Token
	line, col := 1, 1
	i := 0
	adv := func(n int) {
		for k := 0; k < n; k++ {
			if src[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv(1)
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				adv(1)
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			adv(2)
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				adv(1)
			}
			if i+1 >= len(src) {
				return nil, &Error{line, col, "unterminated block comment"}
			}
			adv(2)
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				adv(1)
			}
		case isIdentStart(c):
			l0, c0 := line, col
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			text := src[i:j]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: l0, Col: c0})
			adv(j - i)
		case c >= '0' && c <= '9':
			l0, c0 := line, col
			j := i
			base := int64(10)
			if c == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
				base = 16
				j += 2
			}
			var v int64
			for j < len(src) && isDigit(src[j], base) {
				v = v*base + digitVal(src[j])
				j++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[i:j], Val: v, Line: l0, Col: c0})
			adv(j - i)
		case c == '"':
			l0, c0 := line, col
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					sb.WriteByte(unescape(src[j+1]))
					j += 2
					continue
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, &Error{l0, c0, "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Line: l0, Col: c0})
			adv(j + 1 - i)
		case c == '\'':
			l0, c0 := line, col
			j := i + 1
			var v int64
			if j+1 < len(src) && src[j] == '\\' {
				v = int64(unescape(src[j+1]))
				j += 2
			} else if j < len(src) {
				v = int64(src[j])
				j++
			}
			if j >= len(src) || src[j] != '\'' {
				return nil, &Error{l0, c0, "unterminated char literal"}
			}
			toks = append(toks, Token{Kind: TokChar, Text: src[i : j+1], Val: v, Line: l0, Col: c0})
			adv(j + 1 - i)
		default:
			l0, c0 := line, col
			p := punct(src[i:])
			if p == "" {
				return nil, &Error{l0, c0, fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, Token{Kind: TokPunct, Text: p, Line: l0, Col: c0})
			adv(len(p))
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

// maxExpansion caps the source that macro expansion may produce. Each
// use of an object macro is replaced by its whole value, so V value
// bytes used U times expand to about V·U bytes: without a cap, a 12 KB
// source reaches 16 MB. No program the repository compiles defines a
// macro, and the largest of them (510.parest_r, 60 KB) is a seventeenth
// of the cap.
const maxExpansion = 1 << 20

// expandMacros performs textual substitution of simple `#define NAME value`
// object macros, enough for the listings' `#define SIZE 16` style. It
// refuses a source whose expansion would pass maxExpansion bytes before
// building more of it than that.
func expandMacros(src string) (string, error) {
	lines := strings.Split(src, "\n")
	macros := map[string]string{}
	for _, ln := range lines {
		t := strings.TrimSpace(ln)
		if !strings.HasPrefix(t, "#define") {
			continue
		}
		fields := strings.Fields(t)
		if len(fields) == 3 && isSimpleName(fields[1]) {
			macros[fields[1]] = fields[2]
		}
	}
	if len(macros) == 0 {
		return src, nil
	}
	// Whole-word replacement outside of the #define lines themselves.
	var out strings.Builder
	for i, ln := range lines {
		if i > 0 {
			out.WriteByte('\n')
		}
		if strings.HasPrefix(strings.TrimSpace(ln), "#define") {
			out.WriteString(ln)
		} else {
			replaceWords(&out, ln, macros)
		}
		if out.Len() > maxExpansion {
			return "", &Error{Line: i + 1, Col: 1, Msg: fmt.Sprintf("macro expansion exceeds %d bytes", maxExpansion)}
		}
	}
	return out.String(), nil
}

func isSimpleName(s string) bool {
	for i := 0; i < len(s); i++ {
		if !(isIdentPart(s[i])) {
			return false
		}
	}
	return len(s) > 0 && isIdentStart(s[0])
}

// replaceWords writes line to out with each whole-word macro use
// replaced by its value, stopping once out passes maxExpansion bytes.
func replaceWords(out *strings.Builder, line string, macros map[string]string) {
	i := 0
	for i < len(line) && out.Len() <= maxExpansion {
		if isIdentStart(line[i]) {
			j := i
			for j < len(line) && isIdentPart(line[j]) {
				j++
			}
			word := line[i:j]
			if rep, ok := macros[word]; ok {
				out.WriteString(rep)
			} else {
				out.WriteString(word)
			}
			i = j
			continue
		}
		out.WriteByte(line[i])
		i++
	}
}

// punct returns the punctuator at the start of s, longest first, or "".
func punct(s string) string {
	if len(s) >= 3 {
		switch s[:3] {
		case "<<=", ">>=", "...":
			return s[:3]
		}
	}
	if len(s) >= 2 {
		switch s[:2] {
		case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
			"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--":
			return s[:2]
		}
	}
	if len(s) >= 1 {
		switch s[0] {
		case '+', '-', '*', '/', '%', '=', '<', '>', '!', '&', '|', '^', '~',
			'(', ')', '{', '}', '[', ']', ';', ',', '.', '?', ':':
			return s[:1]
		}
	}
	return ""
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte, base int64) bool {
	if base == 16 {
		return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return c >= '0' && c <= '9'
}

func digitVal(c byte) int64 {
	switch {
	case c >= '0' && c <= '9':
		return int64(c - '0')
	case c >= 'a' && c <= 'f':
		return int64(c-'a') + 10
	default:
		return int64(c-'A') + 10
	}
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	default:
		return c
	}
}
