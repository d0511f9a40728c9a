package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

const prog = `
int main() {
	char name[16];
	fgets(name, 16);
	if (name[0] == 'q') { return 99; }
	printf("hi %s\n", name);
	return strlen(name);
}`

func TestBuildAndRun(t *testing.T) {
	p, err := core.Build("t", prog, core.SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil || res.Ret != 3 {
		t.Fatalf("ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
	if string(res.Stdout) != "hi bob\n" {
		t.Fatalf("stdout %q", res.Stdout)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := core.Build("t", "int main( {", core.SchemeVanilla); err == nil {
		t.Fatal("syntax error must surface")
	}
	if _, err := core.Build("t", "int main() { ghost(); return 0; }", core.SchemePythia); err == nil {
		t.Fatal("undefined call must surface")
	}
}

func TestProtectionReports(t *testing.T) {
	for _, s := range core.Schemes {
		p, err := core.Build("t", prog, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		prot := p.Protection
		if prot.Scheme != s {
			t.Fatalf("scheme mismatch: %v", prot.Scheme)
		}
		switch s {
		case core.SchemeVanilla:
			if prot.PAInstrs() != 0 {
				t.Fatal("vanilla must insert nothing")
			}
		case core.SchemeDFI:
			if prot.DFI == nil || prot.PAInstrs() == 0 {
				t.Fatal("DFI report missing")
			}
		default:
			if prot.Harden == nil || prot.PAInstrs() == 0 {
				t.Fatalf("%v report missing", s)
			}
		}
	}
}

func TestAnalyzeAndBinarySize(t *testing.T) {
	mod, err := core.CompileC("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	vr := core.Analyze(mod)
	if len(vr.Branches) == 0 && vr.Distribution().Total == 0 {
		t.Fatal("analysis found nothing")
	}
	base := core.BinarySize(mod)
	if base <= 0 {
		t.Fatal("binary size must be positive")
	}
	p, err := core.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if core.BinarySize(p.Mod) <= base {
		t.Fatal("instrumentation must grow the binary")
	}
}

func TestSchemeNames(t *testing.T) {
	var names []string
	for _, s := range core.Schemes {
		names = append(names, s.String())
	}
	joined := strings.Join(names, ",")
	if joined != "vanilla,cpa,pythia,dfi" {
		t.Fatalf("scheme order/names: %s", joined)
	}
	for _, s := range core.Schemes {
		if got, ok := core.ParseScheme(s.String()); !ok || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, ok, s)
		}
	}
	// Only the headline schemes are a CLI/API surface, spelled exactly.
	for _, name := range []string{"pythia-fields", "", "PYTHIA"} {
		if s, ok := core.ParseScheme(name); ok {
			t.Errorf("ParseScheme(%q) accepted as %v", name, s)
		}
	}
}

func TestRunsAreIsolated(t *testing.T) {
	p, err := core.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run("one\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run("two\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Stdout) == string(b.Stdout) {
		t.Fatal("each Run must get a fresh machine and stdin")
	}
	if a.Fault != nil || b.Fault != nil {
		t.Fatal("benign runs must not fault")
	}
}
