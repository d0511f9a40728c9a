package slice_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/slice"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/decomposition.golden from the current slicer")

const goldenPath = "testdata/decomposition.golden"

// program is one golden input: a workload profile or an attack case.
type program struct{ name, src string }

// goldenPrograms lists every workload profile and attack case; short
// mode keeps the -quick profiles plus the corpus.
func goldenPrograms(short bool) []program {
	var out []program
	for _, p := range workload.Profiles() {
		switch {
		case !short, p.Name == "519.lbm_r", p.Name == "502.gcc_r", p.Name == "nginx":
			out = append(out, program{p.Name, workload.Source(&p)})
		}
	}
	for _, c := range attack.Corpus() {
		out = append(out, program{c.Name, c.Source})
	}
	return out
}

func compile(t testing.TB, p program) *ir.Module {
	t.Helper()
	mod, err := core.CompileC(p.name, p.src)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return mod
}

// valueName names v independently of pointer identity: fn#ID for an
// instruction, fn%idx for a parameter, @name for a global.
func valueName(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return fmt.Sprintf("%s#%d", x.Block.Parent.FName, x.ID)
	case *ir.Param:
		return fmt.Sprintf("%s%%%d", x.Parent.FName, x.Index)
	case *ir.Global:
		return "@" + x.GName
	}
	return v.Operand()
}

func sortedNames(vals []ir.Value) string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = valueName(v)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// sliceRecord renders every set a decomposition reports. ICs are
// rendered as a set, so the record does not pin their discovery order.
func sliceRecord(s *slice.BranchSlice) string {
	instrs := make([]ir.Value, 0, len(s.Instrs))
	for _, in := range s.Instrs {
		instrs = append(instrs, in)
	}
	roots := make([]ir.Value, 0, len(s.Roots))
	for r := range s.Roots {
		roots = append(roots, r)
	}
	ics := make([]ir.Value, 0, len(s.ICs))
	for _, ic := range s.ICs {
		ics = append(ics, ic.Call)
	}
	return fmt.Sprintf("instrs=[%s] values=[%s] roots=[%s] ics=[%s] terminated=%v ptrvars=%d distance=%d",
		sortedNames(instrs), sortedNames(s.Values), sortedNames(roots), sortedNames(ics),
		s.Terminated, s.PointerVars, s.Distance())
}

var modes = []slice.Mode{slice.ModeFull, slice.ModeDFI, slice.ModeGround}

// branchRecord is one branch's class, its report slice, and the slice
// and SecuredBy verdict of each mode.
func branchRecord(a *slice.Analysis, info slice.BranchInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s class=%v\n report %s\n", valueName(info.Branch), info.Class, sliceRecord(info.Ground))
	for _, m := range modes {
		fmt.Fprintf(&b, " mode%d %s secured=%v\n", m, sliceRecord(a.BranchDecomposition(info.Branch, m)), a.SecuredBy(info, m))
	}
	return b.String()
}

// programLine summarizes one program's report, with a digest over every
// branch record.
func programLine(name string, vr *slice.VulnReport) string {
	h := sha256.New()
	var class [3]int
	for _, info := range vr.Branches {
		class[info.Class]++
		h.Write([]byte(branchRecord(vr.Analysis, info)))
	}
	return fmt.Sprintf("%s branches=%d cpa=%d pythia=%d roots=%d unaffected=%d direct=%d indirect=%d sha256=%x",
		name, len(vr.Branches), len(vr.CPAVars), len(vr.PythiaVars), vr.TotalRoots,
		class[slice.BranchUnaffected], class[slice.BranchDirect], class[slice.BranchIndirect], h.Sum(nil))
}

// TestDecompositionGolden pins every set the slicer reports, in all
// three modes, for every profile and attack case. Regenerate with
// go test ./internal/slice -run TestDecompositionGolden -update.
func TestDecompositionGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full program list; drop -short")
	}
	want := readGolden(t)
	var lines []string
	for _, p := range goldenPrograms(testing.Short()) {
		line := programLine(p.name, slice.AnalyzeVulnerabilities(compile(t, p)))
		lines = append(lines, line)
		if w, ok := want[p.name]; !*update && (!ok || w != line) {
			t.Errorf("%s:\n got %s\nwant %s", p.name, line, w)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !testing.Short() && len(want) != len(lines) {
		t.Errorf("golden has %d programs, the suite %d", len(want), len(lines))
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(goldenPath)
	if err != nil {
		if *update {
			return out
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		out[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalysisConcurrentQueries queries one shared report from several
// goroutines, as the bench run cache does: every record must equal a
// serial pass's.
func TestAnalysisConcurrentQueries(t *testing.T) {
	p := workload.ProfileByName("nginx")
	vr := slice.AnalyzeVulnerabilities(compile(t, program{p.Name, workload.Source(p)}))
	serial := make([]string, len(vr.Branches))
	for i, info := range vr.Branches {
		serial[i] = branchRecord(vr.Analysis, info)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different branch so the
			// goroutines query different slices at the same time.
			for k := range vr.Branches {
				i := (k + w*len(vr.Branches)/workers) % len(vr.Branches)
				if got := branchRecord(vr.Analysis, vr.Branches[i]); got != serial[i] {
					t.Errorf("worker %d, branch %d:\n got %s\nwant %s", w, i, got, serial[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var reportSink *slice.VulnReport

// BenchmarkAnalyzeVulnerabilities measures the slicing layer on one
// mid-size profile: alias analysis, input-channel taint and the ground
// decomposition of all 499 branches.
func BenchmarkAnalyzeVulnerabilities(b *testing.B) {
	p := workload.ProfileByName("523.xalancbmk_r")
	mod := compile(b, program{p.Name, workload.Source(p)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportSink = slice.AnalyzeVulnerabilities(mod)
	}
}
