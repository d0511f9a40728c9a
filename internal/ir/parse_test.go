package ir_test

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

// roundTrip prints a module, parses it back, and checks both text forms
// normalize to the same instruction stream.
func roundTrip(t *testing.T, mod *ir.Module) *ir.Module {
	t.Helper()
	text := mod.String()
	parsed, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	// Compare normalized opcode streams per function (names may differ).
	for _, f := range mod.Defined() {
		g := parsed.Func(f.FName)
		if g == nil {
			t.Fatalf("parsed module lost @%s", f.FName)
		}
		if f.NumInstrs() != g.NumInstrs() {
			t.Fatalf("@%s: %d instrs vs %d after round trip", f.FName, f.NumInstrs(), g.NumInstrs())
		}
		fi := opStream(f)
		gi := opStream(g)
		if fi != gi {
			t.Fatalf("@%s opcode stream changed:\n%s\nvs\n%s", f.FName, fi, gi)
		}
	}
	return parsed
}

func opStream(f *ir.Func) string {
	var sb strings.Builder
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			sb.WriteString(in.Op.String())
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

func TestParseRoundTripSimple(t *testing.T) {
	mod, err := minic.Compile("t", `
int main() {
	int x = 3;
	int y = 4;
	if (x < y) { x = y * 2; }
	while (x > 0) { x = x - 1; }
	return x + y;
}`)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, mod)
}

func TestParseRoundTripPreservesBehaviour(t *testing.T) {
	src := `
int helper(int v) { return v * 3 + 1; }
int main() {
	char buf[16];
	fgets(buf, 16);
	long acc = 0;
	for (int i = 0; buf[i] != 0; i++) { acc = acc + buf[i]; }
	if (acc > 100) { acc = helper(acc); }
	printf("acc=%d\n", acc);
	return acc % 97;
}`
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *ir.Module) (*vm.Result, error) {
		mach := vm.New(m, vm.Config{Seed: 5})
		mach.Stdin.SetInput([]byte("roundtrip!\n"))
		return mach.Run("main")
	}
	want, err := run(mod)
	if err != nil || want.Fault != nil {
		t.Fatalf("original run: %v / %v", err, want.Fault)
	}
	parsed := roundTrip(t, mod)
	got, err := run(parsed)
	if err != nil || got.Fault != nil {
		t.Fatalf("parsed run: %v / %v", err, got.Fault)
	}
	if got.Ret != want.Ret || string(got.Stdout) != string(want.Stdout) {
		t.Fatalf("behaviour changed after round trip: ret %d/%d stdout %q/%q",
			int64(got.Ret), int64(want.Ret), got.Stdout, want.Stdout)
	}
}

func TestParseGlobalsAndStrings(t *testing.T) {
	mod, err := minic.Compile("t", `
long counter = 7;
int main() {
	counter = counter + 1;
	printf("c=%d\n", counter);
	return counter;
}`)
	if err != nil {
		t.Fatal(err)
	}
	parsed := roundTrip(t, mod)
	// The string literal and the scalar global must both survive.
	var hasStr, hasCounter bool
	for _, g := range parsed.Globals {
		if g.Str != "" {
			hasStr = true
		}
		if g.GName == "counter" {
			hasCounter = true
		}
	}
	if !hasStr || !hasCounter {
		t.Fatal("globals lost in round trip")
	}
	m := vm.New(parsed, vm.Config{Seed: 1})
	res, err := m.Run("main")
	if err != nil || res.Fault != nil || res.Ret != 8 {
		t.Fatalf("parsed global program: ret=%d err=%v fault=%v", int64(res.Ret), err, res.Fault)
	}
}

func TestParseHardenedModule(t *testing.T) {
	// The parser must handle every hardening opcode the passes emit.
	text := `
declare void @pacless()
define i64 @main() {
entry:
  %s = alloca [2 x i64]
  seal.store 42, %s
  %v = check.load %s
  %c = alloca i64
  canary.set %c
  canary.check %c
  dfi.setdef #3, %c
  dfi.chkdef %c, [3 7]
  obj.seal %s, 16
  obj.check %s, 16
  ret %v
}
`
	mod, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 2})
	res, err := m.Run("main")
	if err != nil || res.Fault != nil || res.Ret != 42 {
		t.Fatalf("hardened fixture: ret=%d err=%v fault=%v", int64(res.Ret), err, res.Fault)
	}
	if res.Counters.PAInstrs == 0 || res.Counters.DFIOps == 0 {
		t.Fatal("hardening ops not executed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"define i64 @f() {\nentry:\n  ret %undefined\n}",
		"define i64 @f() {\nentry:\n  bogusop 1, 2\n  ret 0\n}",
		"define i64 @f() {\nentry:\n  %x = call i64 @missing()\n  ret %x\n}",
		"@g = malformed",
		"define i64 @f() {\nentry:\n  %x = icmp zz 1, 2\n  ret 0\n}",
		"declare i64 @f() ; input-channel: none",
		"declare i64 @f() ; input-channel: teleport",
		"define i64 @f() {\nentry:\n  %x = trunc 300\n  ret %x\n}",
	}
	for _, src := range cases {
		if _, err := ir.Parse(src); err == nil {
			t.Errorf("Parse accepted invalid input %q", src)
		}
	}
}

func TestParsePhiAndLoops(t *testing.T) {
	text := `
define i64 @main() {
entry:
  br label %head
head:
  %i = phi i64 [0, %entry], [%next, %body]
  %done = icmp sge %i, 5
  condbr %done, label %out, label %body
body:
  %next = add %i, 1
  br label %head
out:
  ret %i
}
`
	mod, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 1})
	res, err := m.Run("main")
	if err != nil || res.Fault != nil || res.Ret != 5 {
		t.Fatalf("phi loop: ret=%d err=%v fault=%v", int64(res.Ret), err, res.Fault)
	}
}

// TestParseKeepsChannels: the printer notes every input channel's kind,
// libc declarations and the wrappers the front end classified alike,
// and Parse reads it back, so analyzing a printed module finds the same
// channel sites as analyzing the module.
func TestParseKeepsChannels(t *testing.T) {
	wrappers := 0
	for _, c := range attack.Corpus() {
		mod, err := core.NewPipeline().Compile(c.Name, c.Source)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ir.Parse(mod.String())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, f := range mod.Funcs {
			if g := parsed.Func(f.FName); g == nil || g.Channel != f.Channel {
				t.Fatalf("%s: @%s is a %v channel, parsed as %v", c.Name, f.FName, f.Channel, g)
			}
			if !f.IsDecl() && f.Channel.IsChannel() {
				wrappers++
			}
		}
	}
	if wrappers == 0 {
		t.Fatal("no corpus case has a wrapper channel: the test covers declarations only")
	}
}

// TestParseKeepsCastTypes: the listing gives every cast's destination
// type, so a printed module runs like the module: indexing through a
// pointer cast steps by the element size, and a truncation keeps its
// width.
func TestParseKeepsCastTypes(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int64
	}{
		{"int main() { long *a; a = malloc(64); a[0] = 1; a[1] = 2; return a[0]; }", 1},
		{"int main() { char c; c = 300; return c; }", 44},
	} {
		mod, err := core.CompileC("casts", c.src)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ir.Parse(mod.String())
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		for i, m := range []*ir.Module{mod, parsed} {
			res, err := vm.New(m, vm.Config{Seed: 1}).Run("main")
			if err != nil || res.Fault != nil || int64(res.Ret) != c.want {
				t.Fatalf("%s (parsed %v): ret=%d err=%v fault=%v, want %d", c.src, i == 1, int64(res.Ret), err, res.Fault, c.want)
			}
		}
	}
}
