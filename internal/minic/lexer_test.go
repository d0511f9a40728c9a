package minic_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/minic"
)

func lex(t *testing.T, src string) []minic.Token {
	t.Helper()
	toks, err := minic.Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func kinds(toks []minic.Token) []minic.TokKind {
	var out []minic.TokKind
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks := lex(t, `int x = 42;`)
	if len(toks) != 6 { // int x = 42 ; EOF
		t.Fatalf("%d tokens: %v", len(toks), toks)
	}
	if toks[0].Kind != minic.TokKeyword || toks[1].Kind != minic.TokIdent ||
		toks[3].Kind != minic.TokNumber || toks[3].Val != 42 {
		t.Fatalf("token stream wrong: %v", toks)
	}
}

func TestLexComments(t *testing.T) {
	toks := lex(t, `
int a; // line comment int b;
/* block
   comment */ int c;`)
	idents := 0
	for _, tk := range toks {
		if tk.Kind == minic.TokIdent {
			idents++
		}
	}
	if idents != 2 {
		t.Fatalf("%d identifiers, want a and c only", idents)
	}
}

func TestLexStringsAndChars(t *testing.T) {
	toks := lex(t, `"he\"llo\n" 'x' '\0' '\n' 0x1F`)
	if toks[0].Kind != minic.TokString || toks[0].Text != "he\"llo\n" {
		t.Fatalf("string = %q", toks[0].Text)
	}
	if toks[1].Val != 'x' || toks[2].Val != 0 || toks[3].Val != '\n' {
		t.Fatalf("char values: %v %v %v", toks[1].Val, toks[2].Val, toks[3].Val)
	}
	if toks[4].Kind != minic.TokNumber || toks[4].Val != 0x1F {
		t.Fatalf("hex literal = %v", toks[4].Val)
	}
}

func TestLexMultiCharPunct(t *testing.T) {
	toks := lex(t, `a <<= b >> c != d && e -> f ++ --`)
	var puncts []string
	for _, tk := range toks {
		if tk.Kind == minic.TokPunct {
			puncts = append(puncts, tk.Text)
		}
	}
	want := []string{"<<=", ">>", "!=", "&&", "->", "++", "--"}
	if len(puncts) != len(want) {
		t.Fatalf("puncts = %v", puncts)
	}
	for i := range want {
		if puncts[i] != want[i] {
			t.Fatalf("punct %d = %q, want %q", i, puncts[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lex(t, "int\nx;")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[1].Col != 1 {
		t.Fatalf("positions: %v", toks[:2])
	}
}

func TestLexMacroExpansion(t *testing.T) {
	toks := lex(t, `
#define SIZE 16
#define NAME buf
int NAME[SIZE];`)
	var texts []string
	for _, tk := range toks {
		if tk.Kind == minic.TokEOF {
			break
		}
		texts = append(texts, tk.String())
	}
	joined := ""
	for _, s := range texts {
		joined += s + " "
	}
	if joined != "int buf [ 16 ] ; " {
		t.Fatalf("expanded: %q", joined)
	}
}

func TestLexMacroDoesNotTouchSubstrings(t *testing.T) {
	toks := lex(t, `
#define N 4
int Nx; int xN; int N;`)
	names := []string{}
	for _, tk := range toks {
		if tk.Kind == minic.TokIdent {
			names = append(names, tk.Text)
		}
	}
	if len(names) != 2 || names[0] != "Nx" || names[1] != "xN" {
		t.Fatalf("idents = %v (N alone must expand, substrings must not)", names)
	}
}

// blowupSource is 12 KB that macro expansion would turn into 16 MB: a
// 4,000-byte macro used 4,000 times in a comment.
func blowupSource() string {
	return "#define A " + strings.Repeat("x", 4000) + "\n/* " + strings.Repeat("A ", 4000) + "*/\nint main() { return 0; }\n"
}

// TestLexRefusesMacroBlowup: a source whose expansion passes the cap is
// refused, and Lex builds no more than the cap of it to find out.
func TestLexRefusesMacroBlowup(t *testing.T) {
	src := blowupSource()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := minic.Lex(src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "macro expansion exceeds") {
		t.Fatalf("Lex of a %d-byte source expanding to 16 MB = %v, want the expansion cap", len(src), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("refusing the source allocated %d bytes", grew)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"\"unterminated", "/* open", "'x", "'\\", "int @;"} {
		if _, err := minic.Lex(bad); err == nil {
			t.Errorf("Lex(%q) must fail", bad)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := minic.Parse("int main() {\n  return *;\n}")
	if err == nil {
		t.Fatal("expected parse error")
	}
	perr, ok := err.(*minic.Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 2 {
		t.Fatalf("error line %d, want 2", perr.Line)
	}
}

func TestKindsVariety(t *testing.T) {
	toks := lex(t, `while (1) { }`)
	ks := kinds(toks)
	if ks[0] != minic.TokKeyword {
		t.Fatal("while must be a keyword")
	}
}
