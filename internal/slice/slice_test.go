package slice_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/slice"
)

// analyze compiles and optimizes src (the same pipeline the defenses
// see) and runs the vulnerability analysis.
func analyze(t *testing.T, src string) *slice.VulnReport {
	t.Helper()
	mod, err := core.CompileC("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(mod)
}

// branchIn returns the infos for branches inside fn.
func branchesIn(vr *slice.VulnReport, fn string) []slice.BranchInfo {
	var out []slice.BranchInfo
	for _, b := range vr.Branches {
		if b.Fn.FName == fn {
			out = append(out, b)
		}
	}
	return out
}

const gateSrc = `
void pin(long *x) { }
int main() {
	char buf[16];
	long gate;
	pin(&gate);
	gate = 0;
	gets(buf);
	if (gate == 7) { return 1; }
	return 0;
}`

func TestBranchDecompositionFindsRootsAndIC(t *testing.T) {
	vr := analyze(t, gateSrc)
	brs := branchesIn(vr, "main")
	if len(brs) != 1 {
		t.Fatalf("%d branches, want 1", len(brs))
	}
	g := brs[0].Ground
	foundGate := false
	for root := range g.Roots {
		if in, ok := root.(*ir.Instr); ok && strings.HasPrefix(in.Nam, "gate.") {
			foundGate = true
		}
	}
	if !foundGate {
		t.Fatal("gate must be a branch sub-variable root")
	}
	// The static slice does NOT see frame-adjacency overflow (the paper's
	// model has the same property); what protects this branch in practice
	// is the canary on the channel's destination buffer, which the taint
	// analysis must flag.
	var bufTainted bool
	for root := range vr.Taint.Roots {
		if in, ok := root.(*ir.Instr); ok && strings.HasPrefix(in.Nam, "buf.") {
			bufTainted = true
		}
	}
	if !bufTainted {
		t.Fatal("the gets() destination must be tainted (it receives the canary)")
	}
}

func TestTaintPropagation(t *testing.T) {
	vr := analyze(t, `
int main() {
	char buf[16];
	long derived;
	long clean;
	fgets(buf, 16);
	derived = buf[0] + 1;
	clean = 42;
	if (derived > clean) { return 1; }
	return 0;
}`)
	taint := vr.Taint
	var bufTainted, cleanTainted bool
	for root := range taint.Roots {
		if in, ok := root.(*ir.Instr); ok {
			bufTainted = bufTainted || strings.HasPrefix(in.Nam, "buf.")
			cleanTainted = cleanTainted || strings.HasPrefix(in.Nam, "clean.")
		}
	}
	if !bufTainted {
		t.Fatal("channel destination must be tainted")
	}
	if cleanTainted {
		t.Fatal("clean constant variable must not be tainted")
	}
}

func TestInterproceduralTaint(t *testing.T) {
	vr := analyze(t, `
long derive(char *b) { return b[0] * 2; }
int main() {
	char buf[8];
	gets(buf);
	long v = derive(buf);
	if (v > 10) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	if len(brs) != 1 || brs[0].Class == slice.BranchUnaffected {
		t.Fatal("taint must flow through the callee's return")
	}
}

func TestUnaffectedBranch(t *testing.T) {
	vr := analyze(t, `
int main() {
	char buf[16];
	gets(buf);
	long t = 0;
	for (int i = 0; i < 4; i++) { t += i; }
	if (t > 2) { return 1; }
	return 0;
}`)
	// The t>2 branch never touches channel data; the loop condition is
	// likewise unaffected.
	for _, b := range branchesIn(vr, "main") {
		if b.Class != slice.BranchUnaffected {
			t.Fatalf("branch misclassified as %v", b.Class)
		}
	}
}

func TestDirectClassification(t *testing.T) {
	vr := analyze(t, `
int main() {
	char buf[16];
	fgets(buf, 16);
	if (buf[0] == 'x') { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	if len(brs) != 1 || brs[0].Class != slice.BranchDirect {
		t.Fatalf("class = %v, want direct", brs[0].Class)
	}
}

func TestDFIModeTerminatesAtPointerArith(t *testing.T) {
	vr := analyze(t, `
int main() {
	long tab[8];
	int idx;
	scanf("%d", &idx);
	long v = tab[idx];        /* non-constant index */
	if (v > 0) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	if len(brs) != 1 {
		t.Fatalf("%d branches", len(brs))
	}
	d := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeDFI)
	if !d.Terminated {
		t.Fatal("DFI slice must terminate at the non-constant index")
	}
	full := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeFull)
	if full.Terminated {
		t.Fatal("full slice must not terminate")
	}
	if len(full.ICs) == 0 {
		t.Fatal("full slice must reach the scanf channel")
	}
	if vr.Analysis.SecuredBy(brs[0], slice.ModeDFI) {
		t.Fatal("DFI must not secure the pointer-arithmetic branch")
	}
	if !vr.Analysis.SecuredBy(brs[0], slice.ModeFull) {
		t.Fatal("Pythia must secure it")
	}
}

func TestDFIModeTerminatesAtStructField(t *testing.T) {
	vr := analyze(t, `
struct cfg { long lim; long pad; };
int main() {
	struct cfg c;
	char buf[8];
	gets(buf);
	c.lim = buf[0];
	if (c.lim > 5) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	d := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeDFI)
	if !d.Terminated {
		t.Fatal("field-sensitive access must terminate the DFI slice")
	}
}

func TestDeepChainBeyondPythiaHorizon(t *testing.T) {
	vr := analyze(t, `
long g_cfg;
long c5(long v) { return v + g_cfg; }
long c4(long v) { return c5(v); }
long c3(long v) { return c4(v); }
long c2(long v) { return c3(v); }
long c1(long v) { return c2(v); }
int main() {
	long s;
	scanf("%d", &s);
	g_cfg = s;
	if (c1(3) > 10) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	if len(brs) != 1 {
		t.Fatalf("%d branches", len(brs))
	}
	if len(brs[0].Ground.ICs) == 0 {
		t.Fatal("ground truth (depth 6) must reach the channel")
	}
	py := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeFull)
	if py.ContainsIC(brs[0].Ground.ICs[0].Call) {
		t.Fatal("Pythia (depth 3) must not reach a channel five calls away")
	}
	if vr.Analysis.SecuredBy(brs[0], slice.ModeFull) {
		t.Fatal("the deep-chain branch is beyond Pythia's certification")
	}
}

func TestVulnerableSetsRefinement(t *testing.T) {
	vr := analyze(t, `
int main() {
	char inbuf[16];
	long tainted;
	long cleanpad[4];
	fgets(inbuf, 16);
	tainted = inbuf[2];
	cleanpad[0] = 7;
	if (tainted > 0) { return 1; }
	if (cleanpad[0] > 3) { return 2; }
	return 0;
}`)
	if len(vr.CPAVars) < len(vr.PythiaVars) {
		t.Fatal("refinement must not grow the set")
	}
	// cleanpad feeds a branch (CPA) but is untainted (not Pythia).
	var inCPA, inPythia bool
	for root := range vr.CPAVars {
		if in, ok := root.(*ir.Instr); ok && strings.HasPrefix(in.Nam, "cleanpad.") {
			inCPA = true
		}
	}
	for root := range vr.PythiaVars {
		if in, ok := root.(*ir.Instr); ok && strings.HasPrefix(in.Nam, "cleanpad.") {
			inPythia = true
		}
	}
	if !inCPA {
		t.Fatal("cleanpad must be in the conservative set")
	}
	if inPythia {
		t.Fatal("cleanpad must be refined away")
	}
}

func TestAttackDistanceMonotone(t *testing.T) {
	vr := analyze(t, gateSrc)
	brs := branchesIn(vr, "main")
	full := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeFull)
	dfi := vr.Analysis.BranchDecomposition(brs[0].Branch, slice.ModeDFI)
	if full.Distance() < dfi.Distance() {
		t.Fatalf("full distance %d < DFI distance %d; the alias-aware slice must start at least as high",
			full.Distance(), dfi.Distance())
	}
	if full.Distance() <= 0 {
		t.Fatal("distance must be positive for a protected branch")
	}
}

func TestPointerVarsCounted(t *testing.T) {
	vr := analyze(t, `
int main() {
	int arr[4];
	int *p = arr;
	int k;
	scanf("%d", &k);
	p = p + k;
	if (*p > 0) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	if brs[0].Ground.PointerVars == 0 {
		t.Fatal("pointer-dereferencing predicate must count pointer sub-variables")
	}
}

func TestHeapRootInSlice(t *testing.T) {
	vr := analyze(t, `
int main() {
	long *flag = malloc(8);
	*flag = 0;
	gets((char *)flag);
	if (*flag != 0) { return 1; }
	return 0;
}`)
	brs := branchesIn(vr, "main")
	foundHeap := false
	for root := range brs[0].Ground.Roots {
		if in, ok := root.(*ir.Instr); ok && in.Op == ir.OpCall {
			foundHeap = true
		}
	}
	if !foundHeap {
		t.Fatal("the heap allocation site must be a slice root")
	}
}
