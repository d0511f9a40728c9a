package core_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
