package harden_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/slice"
	"repro/internal/vm"
)

// benignCorpus: programs + inputs whose observable behaviour must be
// IDENTICAL under every hardening scheme (no false positives, same
// results) — the central soundness property of the passes.
var benignCorpus = []struct {
	name, src, stdin string
}{
	{"gate", `
void pin(long *x) { }
int main() {
	char buf[16];
	long gate;
	pin(&gate);
	gate = 5;
	fgets(buf, 16);
	if (gate == 5) { return 1; }
	return 0;
}`, "hello\n"},
	{"copy-loop", `
int main() {
	char src[32]; char dst[32];
	fgets(src, 32);
	long n = strlen(src);
	for (int i = 0; i <= n; i++) { dst[i] = src[i]; }
	printf("%s|%d\n", dst, n);
	return n;
}`, "roundtrip\n"},
	{"heap", `
int main() {
	char *b = malloc(64);
	fgets(b, 64);
	long n = strlen(b);
	long *cnt = malloc(8);
	*cnt = n * 2;
	long out = *cnt;
	free(b);
	free(cnt);
	return out;
}`, "heapdata\n"},
	{"interproc", `
void fill(char *dst) { fgets(dst, 12); }
long gauge(char *s) { return strlen(s); }
int main() {
	char name[12];
	fill(name);
	return gauge(name);
}`, "short\n"},
	{"scanf-scalars", `
void pin(long *x) { }
int main() {
	long a; long b;
	pin(&a); pin(&b);
	scanf("%d %d", &a, &b);
	if (a > b) { return a - b; }
	return b - a;
}`, "11 4\n"},
}

func buildAndRun(t *testing.T, src, stdin string, scheme core.Scheme) *vm.Result {
	t.Helper()
	prog, err := core.Build("t", src, scheme)
	if err != nil {
		t.Fatalf("build %v: %v", scheme, err)
	}
	res, err := prog.Run(stdin)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchemesPreserveBenignBehaviour(t *testing.T) {
	for _, c := range benignCorpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			base := buildAndRun(t, c.src, c.stdin, core.SchemeVanilla)
			if base.Fault != nil {
				t.Fatalf("vanilla faulted: %v", base.Fault)
			}
			for _, scheme := range []core.Scheme{core.SchemeCPA, core.SchemePythia, core.SchemeDFI} {
				res := buildAndRun(t, c.src, c.stdin, scheme)
				if res.Fault != nil {
					t.Fatalf("%v false positive: %v", scheme, res.Fault)
				}
				if res.Ret != base.Ret {
					t.Fatalf("%v changed result: %d != %d", scheme, int64(res.Ret), int64(base.Ret))
				}
				if string(res.Stdout) != string(base.Stdout) {
					t.Fatalf("%v changed output: %q != %q", scheme, res.Stdout, base.Stdout)
				}
			}
		})
	}
}

func protect(t *testing.T, src string, scheme core.Scheme) (*ir.Module, *harden.Report) {
	t.Helper()
	mod, err := core.CompileC("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Protect(mod, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return mod, p.Harden
}

const vulnSrc = `
void pin(long *x) { }
int main() {
	char buf[16];
	long gate;
	pin(&gate);
	gate = 0;
	gets(buf);
	long *h = malloc(32);
	memcpy(h, buf, 8);
	if (gate == buf[0]) { return 1; }
	if (*h > 3) { return 2; }
	free(h);
	return 0;
}`

func TestCPAReportCounts(t *testing.T) {
	mod, rep := protect(t, vulnSrc, core.SchemeCPA)
	if rep.SealedScalars == 0 {
		t.Fatal("CPA must seal the scalar gate")
	}
	if rep.SealedObjects == 0 {
		t.Fatal("CPA must seal the buffer / heap objects")
	}
	if rep.PAInstrs == 0 {
		t.Fatal("CPA must insert PA instructions")
	}
	// The instrumented module still verifies and every sealed scalar
	// alloca was widened to the [value|pac] pair.
	for _, f := range mod.Defined() {
		for _, a := range f.Allocas() {
			if a.GetMeta("sealed") != "" && a.AllocTy.Size() != 16 {
				t.Fatalf("sealed slot %s not widened", a.Nam)
			}
		}
	}
}

func TestPythiaPlanLayout(t *testing.T) {
	mod, rep := protect(t, vulnSrc, core.SchemePythia)
	if rep.Canaries == 0 {
		t.Fatal("Pythia must add canaries")
	}
	f := mod.Func("main")
	plan := f.Plan
	if plan == nil {
		t.Fatal("Pythia must install a stack plan")
	}
	// Plan invariants: slots are disjoint, in-bounds, every vulnerable
	// slot is immediately followed by a canary, non-vulnerable slots
	// come first (lower addresses).
	var lastEnd int64
	seenVuln := false
	for i, s := range plan.Slots {
		if s.Offset < lastEnd {
			t.Fatalf("slot %d overlaps previous", i)
		}
		lastEnd = s.Offset + s.Size
		if s.Vuln {
			seenVuln = true
			if i+1 >= len(plan.Slots) || !plan.Slots[i+1].Canary {
				t.Fatalf("vulnerable slot %d lacks a trailing canary", i)
			}
		}
		if !s.Vuln && !s.Canary && seenVuln {
			t.Fatalf("non-vulnerable slot %d placed above a vulnerable one (relayout violated)", i)
		}
	}
	if lastEnd > plan.Size {
		t.Fatal("plan size smaller than its slots")
	}
	if !seenVuln {
		t.Fatal("no vulnerable slot in the plan")
	}
}

func TestPythiaHeapSectioning(t *testing.T) {
	mod, rep := protect(t, vulnSrc, core.SchemePythia)
	if rep.HeapRelocated == 0 {
		t.Fatal("the tainted malloc site must be relocated")
	}
	found := false
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee.FName == "secure_malloc" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no secure_malloc call after sectioning")
	}
}

func TestPythiaLeavesCleanMallocAlone(t *testing.T) {
	_, rep := protect(t, `
int main() {
	long *a = malloc(64);
	a[0] = 7;
	long v = a[0];
	free(a);
	return v;
}`, core.SchemePythia)
	if rep.HeapRelocated != 0 {
		t.Fatal("untainted allocation must stay in the shared section")
	}
}

func TestAblationConfigsApply(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeStackOnly, core.SchemeHeapOnly, core.SchemeNoRelayout} {
		mod, rep := protect(t, vulnSrc, scheme)
		if err := ir.Verify(mod); err != nil {
			t.Fatalf("%v: invalid IR: %v", scheme, err)
		}
		switch scheme {
		case core.SchemeStackOnly:
			if rep.Canaries == 0 || rep.HeapRelocated != 0 {
				t.Fatalf("stack-only: %+v", rep)
			}
		case core.SchemeHeapOnly:
			if rep.Canaries != 0 || rep.HeapRelocated == 0 {
				t.Fatalf("heap-only: %+v", rep)
			}
		case core.SchemeNoRelayout:
			if rep.Canaries == 0 {
				t.Fatalf("no-relayout still needs canaries: %+v", rep)
			}
		}
	}
}

// twoTargetSrc stores through a pointer that may reach either of two
// locals, so the CPA pass reseals both after the store, one per
// points-to object.
const twoTargetSrc = `
int main() { int a; int b; int *p; char buf[16]; a = 0; b = 0; gets(buf);
  if (buf[0] == 120) { p = &a; } else { p = &b; }
  *p = buf[1]; if (a != 0) { printf("A\n"); } if (b != 0) { printf("B\n"); } return 0; }`

// TestHardenIsDeterministic hardens one vanilla encoding many times
// under every scheme: the checks a pass inserts per points-to object
// must come out in one order, or two processes could persist different
// bytes under one harden key.
func TestHardenIsDeterministic(t *testing.T) {
	mod, err := core.CompileC("t", twoTargetSrc)
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	for s := core.SchemeVanilla; s <= core.SchemeFields; s++ {
		encs := make(map[string]bool)
		for i := 0; i < 40; i++ {
			mod, err := ir.DecodeModule(vanilla)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Protect(mod, s); err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			enc, err := ir.EncodeModule(mod)
			if err != nil {
				t.Fatal(err)
			}
			encs[string(enc)] = true
		}
		if len(encs) != 1 {
			t.Errorf("%v: 40 hardenings of one encoding gave %d distinct encodings", s, len(encs))
		}
	}
}

func TestVanillaIsIdentity(t *testing.T) {
	mod, err := core.CompileC("t", vulnSrc)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.NumInstrs()
	p, err := core.Protect(mod, core.SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumInstrs() != before {
		t.Fatal("vanilla scheme must not touch the module")
	}
	if p.PAInstrs() != 0 {
		t.Fatal("vanilla reports instrumentation")
	}
}

func TestEstimateBoundsDominateActual(t *testing.T) {
	mod, err := core.CompileC("t", vulnSrc)
	if err != nil {
		t.Fatal(err)
	}
	vr := slice.AnalyzeVulnerabilities(mod)
	b := harden.EstimateBounds(vr)

	_, cpaRep := protect(t, vulnSrc, core.SchemeCPA)
	if float64(cpaRep.PAInstrs) > b.CPABound {
		t.Fatalf("Eq.1 bound %.0f below actual CPA insertion %d", b.CPABound, cpaRep.PAInstrs)
	}
	if b.PythiaBound >= b.CPABound {
		t.Fatalf("Eq.5 (%.0f) must be below Eq.1 (%.0f) when v' < v", b.PythiaBound, b.CPABound)
	}
	if b.Branches == 0 || b.VulnCPA == 0 {
		t.Fatalf("bounds parameters empty: %+v", b)
	}
}

func TestDoubleApplicationRejected(t *testing.T) {
	mod, err := core.CompileC("t", vulnSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, harden.Pythia); err != nil {
		t.Fatal(err)
	}
	// A second application must either error or at minimum keep the
	// module verifiable; it must never corrupt the IR silently.
	if _, err := core.Protect(mod, harden.CPA); err == nil {
		if verr := ir.Verify(mod); verr != nil {
			t.Fatalf("double instrumentation corrupted the module: %v", verr)
		}
	}
}

func TestAttacksDetectedThroughVM(t *testing.T) {
	// End-to-end: the CPA-sealed gate rejects a raw overflow.
	prog, err := core.Build("t", vulnSrc, core.SchemeCPA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Kind != vm.FaultPAC {
		t.Fatalf("fault = %v, want pac", res.Fault)
	}
}

// sealedPtrSrc reads buf through p, a pointer that set stores and CPA
// seals; the read is the only one of buf's bytes after gets fills it.
const sealedPtrSrc = `void set(char **pp, char *v) { *pp = v; } int main() { char buf[16]; char *p; set(&p, buf); gets(buf); if (*p == 65) { return 1; } return 0; }`

// TestCPAChecksReadThroughSealedPointer: CPA replaces the load of p
// with an authenticated check.load, and the read of buf through it
// still gets buf's object check right before it, since the pass asks
// the analysis about the load it read, not the check.load that
// replaces it. The program's results stay the same on both engines.
func TestCPAChecksReadThroughSealedPointer(t *testing.T) {
	mod, _ := protect(t, sealedPtrSrc, core.SchemeCPA)
	f := mod.Func("main")
	var buf *ir.Instr
	for _, a := range f.Allocas() {
		if a.GetMeta("var") == "buf" {
			buf = a
		}
	}
	var read, prev *ir.Instr
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpLoad && in.Typ.Equal(ir.I8) && i > 0 {
				read, prev = in, b.Instrs[i-1]
			}
		}
	}
	if buf == nil || read == nil {
		t.Fatalf("no buf alloca or byte read in\n%s", f)
	}
	if prev.Op != ir.OpObjCheck || prev.Args[0] != ir.Value(buf) {
		t.Fatalf("%s is preceded by %s, want obj.check of %s", read, prev, buf.Operand())
	}
	for _, c := range []struct {
		stdin string
		ret   int64
	}{{"hi\n", 0}, {"AAAA\n", 1}} {
		for _, reference := range []bool{false, true} {
			m := vm.New(mod, vm.Config{Seed: 1, Reference: reference})
			m.Stdin.SetInput([]byte(c.stdin))
			res, err := m.Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if res.Fault != nil || int64(res.Ret) != c.ret {
				t.Errorf("reference=%v, stdin %q: ret=%d fault=%v, want %d", reference, c.stdin, int64(res.Ret), res.Fault, c.ret)
			}
		}
	}
}
