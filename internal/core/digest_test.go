package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/harden_digests.golden from the current pipeline")

const digestsPath = "testdata/harden_digests.golden"

// allSchemes lists every scheme the pipeline builds, the ablations and
// the field-canary extension included.
var allSchemes = []core.Scheme{
	core.SchemeVanilla, core.SchemeCPA, core.SchemePythia, core.SchemeDFI,
	core.SchemeStackOnly, core.SchemeHeapOnly, core.SchemeNoRelayout, core.SchemeFields,
}

// digestPrograms lists the 16 workload profiles, the 18 default-suite
// programs and the attack corpus, as (name, source) pairs.
func digestPrograms() [][2]string {
	var out [][2]string
	for _, p := range append(workload.Profiles(), workload.DefaultSuite().Profiles()...) {
		out = append(out, [2]string{p.Name, workload.Source(&p)})
	}
	for _, c := range attack.Corpus() {
		out = append(out, [2]string{c.Name, c.Source})
	}
	return out
}

// TestHardenedEncodingsGolden pins every hardened encoding: one line per
// (program, scheme), the sha256 of the encoding of the module a fresh
// pipeline's Build returns. Every instrumentation decision shows in it,
// so a change to how the passes get their analysis that alters any
// emitted instruction fails here. Regenerate with
// go test ./internal/core -run TestHardenedEncodingsGolden -update.
func TestHardenedEncodingsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program under every scheme")
	}
	want := make(map[string]string)
	if !*update {
		f, err := os.Open(digestsPath)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if i := strings.LastIndexByte(sc.Text(), ' '); i > 0 {
				want[sc.Text()[:i]] = sc.Text()
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	pl := core.NewPipeline()
	var lines []string
	for _, p := range digestPrograms() {
		for _, s := range allSchemes {
			prog, err := pl.Build(p[0], p[1], s)
			if err != nil {
				t.Fatalf("%s under %v: %v", p[0], s, err)
			}
			enc, err := ir.EncodeModule(prog.Mod)
			if err != nil {
				t.Fatalf("%s under %v: %v", p[0], s, err)
			}
			key := p[0] + " " + s.String()
			line := fmt.Sprintf("%s %x", key, sha256.Sum256(enc))
			lines = append(lines, line)
			if w := want[key]; !*update && w != line {
				t.Errorf("got  %s\nwant %s", line, w)
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(lines) {
		t.Errorf("golden has %d lines, the suite %d", len(want), len(lines))
	}
}

// fieldCanarySrc is the §6.4 program: gets overflows name into priv, a
// sibling field of the same struct.
const fieldCanarySrc = `
struct session { char name[8]; long priv; };
int main() {
	struct session s;
	s.priv = 0;
	gets(s.name);
	if (s.priv != 0) { printf("GRANTED\n"); return 99; }
	printf("normal\n");
	return 0;
}`

// TestHardenIgnoresSliceCapacity hardens each pinned program and the
// §6.4 program under every scheme twice from one decoded compile: once
// as decoded, and once with every block's Instrs clipped to its length.
// A pass that inserted into a block while ranging over it would see the
// spare capacity and emit different code for the two. The §6.4 gets
// call must be guarded once per field canary: one set before it and one
// check after it.
func TestHardenIgnoresSliceCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("hardens every program under every scheme twice")
	}
	for _, p := range append(digestPrograms(), [2]string{"fieldcanary", fieldCanarySrc}) {
		mod, err := core.CompileC(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range allSchemes {
			var encs [2][]byte
			var hardened *ir.Module
			for i := range encs {
				m, err := ir.DecodeModule(enc)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					for _, f := range m.Funcs {
						for _, b := range f.Blocks {
							b.Instrs = slices.Clip(b.Instrs)
						}
					}
				}
				if _, err := core.Protect(m, s); err != nil {
					t.Fatalf("%s under %v: %v", p[0], s, err)
				}
				if encs[i], err = ir.EncodeModule(m); err != nil {
					t.Fatal(err)
				}
				hardened = m
			}
			if !bytes.Equal(encs[0], encs[1]) {
				t.Errorf("%s under %v: clipping the blocks changes the encoding", p[0], s)
			}
			if p[0] == "fieldcanary" && s == core.SchemeFields {
				sets, checks := fieldGuards(t, hardened.Func("main"), "gets")
				if sets != 1 || checks != 1 {
					t.Errorf("gets has %d field canary sets before it and %d checks after it, want 1 and 1 (name[8] has one canary)\n%s",
						sets, checks, hardened.Func("main"))
				}
			}
		}
	}
}

// fieldGuards counts the canary.set ops on field-canary GEPs in the run
// of guard code right before the call to callee in f, and the
// canary.check ops on them right after it.
func fieldGuards(t *testing.T, f *ir.Func, callee string) (sets, checks int) {
	t.Helper()
	field := func(in *ir.Instr) bool { return in.GetMeta("pass") == "pythia.field" }
	guard := func(in *ir.Instr) bool {
		return field(in) || in.Op == ir.OpCanarySet || in.Op == ir.OpCanaryCheck
	}
	count := func(in *ir.Instr, op ir.Op) int {
		if g, ok := in.Args[0].(*ir.Instr); ok && in.Op == op && field(g) {
			return 1
		}
		return 0
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpCall || in.Callee.FName != callee {
				continue
			}
			for j := i - 1; j >= 0 && guard(b.Instrs[j]); j-- {
				if !field(b.Instrs[j]) {
					sets += count(b.Instrs[j], ir.OpCanarySet)
				}
			}
			for j := i + 1; j < len(b.Instrs) && guard(b.Instrs[j]); j++ {
				if !field(b.Instrs[j]) {
					checks += count(b.Instrs[j], ir.OpCanaryCheck)
				}
			}
			return sets, checks
		}
	}
	t.Fatalf("no call to %s in @%s", callee, f.FName)
	return 0, 0
}
