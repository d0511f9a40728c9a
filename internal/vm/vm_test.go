package vm_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pa"
	"repro/internal/vm"
)

func machine(t *testing.T, src, stdin string) *vm.Machine {
	t.Helper()
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 7})
	m.Stdin.SetInput([]byte(stdin))
	return m
}

// numbered renumbers a hand-built or hand-edited module, as the front
// end and the hardening passes do before a module leaves them: both
// engines index their profiles by Instr.ID.
func numbered(mod *ir.Module) *ir.Module {
	for _, f := range mod.Funcs {
		f.Renumber()
	}
	return mod
}

func mustRun(t *testing.T, m *vm.Machine, fn string, args ...uint64) *vm.Result {
	t.Helper()
	res, err := m.Run(fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunUnknownFunction(t *testing.T) {
	m := machine(t, `int main() { return 0; }`, "")
	if _, err := m.Run("nope"); err == nil {
		t.Fatal("running an unknown function must error")
	}
	if _, err := m.Run("printf"); err == nil {
		t.Fatal("running a declaration must error")
	}
}

func TestFaultDivisionByZero(t *testing.T) {
	m := machine(t, `
int main() {
	int z;
	scanf("%d", &z);
	return 10 / z;
}`, "0\n")
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultRuntime {
		t.Fatalf("fault = %v, want runtime", res.Fault)
	}
}

func TestFaultWildPointer(t *testing.T) {
	m := machine(t, `
int main() {
	int *p = 64;
	return *p;
}`, "")
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultSegv {
		t.Fatalf("fault = %v, want segv", res.Fault)
	}
}

func TestFuelExhaustion(t *testing.T) {
	mod, err := minic.Compile("t", `int main() { while (1) { } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 1, Fuel: 10_000})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultOOF {
		t.Fatalf("fault = %v, want out-of-fuel", res.Fault)
	}
}

func TestCallDepthLimit(t *testing.T) {
	m := machine(t, `
int down(int n) { return down(n + 1); }
int main() { return down(0); }`, "")
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultRuntime {
		t.Fatalf("fault = %v, want runtime stack overflow", res.Fault)
	}
	if !strings.Contains(res.Fault.Error(), "stack overflow") {
		t.Fatalf("unexpected fault: %v", res.Fault)
	}
}

func TestSignExtensionOfChars(t *testing.T) {
	m := machine(t, `
int main() {
	char c;
	c = 200;           /* wraps to -56 as signed char */
	if (c < 0) { return 1; }
	return 0;
}`, "")
	res := mustRun(t, m, "main")
	if res.Fault != nil || res.Ret != 1 {
		t.Fatalf("ret=%d fault=%v, want 1/clean", int64(res.Ret), res.Fault)
	}
}

func TestHeapIntrinsics(t *testing.T) {
	m := machine(t, `
int main() {
	char *p = malloc(32);
	char *q = calloc(4, 8);
	memset(p, 'x', 31);
	p[31] = '\0';
	long n = strlen(p);
	long z = q[0];      /* calloc must zero */
	free(p);
	free(q);
	return n + z;
}`, "")
	res := mustRun(t, m, "main")
	if res.Fault != nil || int64(res.Ret) != 31 {
		t.Fatalf("ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

func TestSprintfAndAtoi(t *testing.T) {
	m := machine(t, `
int main() {
	char buf[32];
	sprintf(buf, "%d-%s", 42, "ok");
	if (strcmp(buf, "42-ok") != 0) { return 1; }
	return atoi("  123");
}`, "")
	res := mustRun(t, m, "main")
	if res.Fault != nil || int64(res.Ret) != 123 {
		t.Fatalf("ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

func TestInputStreamSemantics(t *testing.T) {
	s := vm.NewInputStream([]byte("12 ab\nline2\nrest"))
	if tok := string(s.ReadToken()); tok != "12" {
		t.Fatalf("token = %q", tok)
	}
	if tok := string(s.ReadToken()); tok != "ab" {
		t.Fatalf("token = %q", tok)
	}
	if line := string(s.ReadLine()); line != "" {
		t.Fatalf("line after token = %q, want remainder of line", line)
	}
	if line := string(s.ReadLine()); line != "line2" {
		t.Fatalf("line = %q", line)
	}
	if b := string(s.ReadN(10)); b != "rest" {
		t.Fatalf("readN = %q", b)
	}
	if b := s.ReadN(4); b != nil {
		t.Fatalf("exhausted stream returned %q", b)
	}
}

func TestScanfMultipleConversions(t *testing.T) {
	m := machine(t, `
int main() {
	int a; int b;
	char w[16];
	scanf("%d %s %d", &a, w, &b);
	if (strcmp(w, "mid") != 0) { return 99; }
	return a * 100 + b;
}`, "7 mid 3\n")
	res := mustRun(t, m, "main")
	if res.Fault != nil || int64(res.Ret) != 703 {
		t.Fatalf("ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

// buildSealed constructs IR that uses seal.store/check.load directly.
func buildSealed(t *testing.T) (*ir.Module, *ir.Instr) {
	t.Helper()
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("s", ir.ArrayOf(ir.I64, 2))
	slot.SetMeta("sealed", "1")
	seal := ir.NewInstr(ir.OpSealStore, "", ir.Void, ir.ConstInt(ir.I64, -12345), slot)
	b.Cur.Append(seal)
	chk := ir.NewInstr(ir.OpCheckLoad, f.GenName("c"), ir.I64, slot)
	b.Cur.Append(chk)
	b.Ret(chk)
	if err := ir.Verify(numbered(mod)); err != nil {
		t.Fatal(err)
	}
	return mod, slot
}

func TestSealStoreCheckLoadRoundTrip(t *testing.T) {
	mod, _ := buildSealed(t)
	m := vm.New(numbered(mod), vm.Config{Seed: 5})
	res := mustRun(t, m, "main")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if int64(res.Ret) != -12345 {
		t.Fatalf("sealed round trip = %d, want -12345 (negative values must survive)", int64(res.Ret))
	}
	if res.Counters.PAInstrs != 2 {
		t.Fatalf("PA ops = %d, want 2", res.Counters.PAInstrs)
	}
}

func TestCheckLoadDetectsRawOverwrite(t *testing.T) {
	// Seal, then corrupt via a raw store, then check.
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("s", ir.ArrayOf(ir.I64, 2))
	b.Cur.Append(ir.NewInstr(ir.OpSealStore, "", ir.Void, ir.ConstInt(ir.I64, 7), slot))
	// Attacker-style raw write of the value bytes.
	b.Store(ir.ConstInt(ir.I64, 8), slot)
	chk := ir.NewInstr(ir.OpCheckLoad, f.GenName("c"), ir.I64, slot)
	b.Cur.Append(chk)
	b.Ret(chk)
	m := vm.New(numbered(mod), vm.Config{Seed: 5})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultPAC {
		t.Fatalf("fault = %v, want pac", res.Fault)
	}
}

func TestObjSealCheck(t *testing.T) {
	src := func(tamper bool) string {
		t := ""
		if tamper {
			t = "buf[3] = 'X';"
		}
		return `
int main() {
	char buf[16];
	strcpy(buf, "abcdef");
	` + t + `
	return buf[0];
}`
	}
	// Hand-instrument: seal after strcpy, check before the final load.
	build := func(tamper bool) *ir.Module {
		mod, err := minic.Compile("t", src(tamper))
		if err != nil {
			t.Fatal(err)
		}
		f := mod.Func("main")
		var buf *ir.Instr
		for _, a := range f.Allocas() {
			if a.GetMeta("var") == "buf" {
				buf = a
			}
		}
		var call, load *ir.Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee.FName == "strcpy" {
					call = in
				}
				if in.Op == ir.OpLoad && load == nil && call != nil {
					load = in
				}
			}
		}
		ed := ir.NewEdits(f)
		ed.After(call, ir.NewInstr(ir.OpObjSeal, "", ir.Void, buf, ir.ConstInt(ir.I64, 16)))
		// Check right before the return's load — find the LAST load.
		var lastLoad *ir.Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpLoad {
					lastLoad = in
				}
			}
		}
		ed.Before(lastLoad, ir.NewInstr(ir.OpObjCheck, "", ir.Void, buf, ir.ConstInt(ir.I64, 16)))
		ed.Apply()
		return numbered(mod)
	}

	clean := vm.New(build(false), vm.Config{Seed: 2})
	res := mustRun(t, clean, "main")
	if res.Fault != nil || int64(res.Ret) != 'a' {
		t.Fatalf("clean obj seal/check: ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
	dirty := vm.New(build(true), vm.Config{Seed: 2})
	res = mustRun(t, dirty, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultPAC {
		t.Fatalf("tampered object: fault=%v, want pac", res.Fault)
	}
}

// TestObjSealDiesWithFrame: a seal on a callee's local buffer dies
// when the callee returns. The next callee's buffer reuses the address
// with other bytes, and obj.check on it passes on both engines.
func TestObjSealDiesWithFrame(t *testing.T) {
	const src = `
int sealer() {
	char buf[16];
	strcpy(buf, "abcdef");
	return buf[0];
}
int reuser() {
	char buf[16];
	strcpy(buf, "zzzzzz");
	return buf[0];
}
int main() {
	sealer();
	return reuser();
}`
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-instrument: sealer seals buf after its strcpy, reuser checks
	// its own buf after its strcpy.
	for fn, op := range map[string]ir.Op{"sealer": ir.OpObjSeal, "reuser": ir.OpObjCheck} {
		f := mod.Func(fn)
		var buf *ir.Instr
		for _, a := range f.Allocas() {
			if a.GetMeta("var") == "buf" {
				buf = a
			}
		}
		ed := ir.NewEdits(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee.FName == "strcpy" {
					ed.After(in, ir.NewInstr(op, "", ir.Void, buf, ir.ConstInt(ir.I64, 16)))
					break
				}
			}
		}
		ed.Apply()
	}
	for _, reference := range []bool{false, true} {
		res := mustRun(t, vm.New(numbered(mod), vm.Config{Seed: 2, Reference: reference}), "main")
		if res.Fault != nil || int64(res.Ret) != 'z' {
			t.Errorf("reference=%v: ret=%d fault=%v, want 'z' and no fault", reference, int64(res.Ret), res.Fault)
		}
	}
}

func TestCanaryOpsDetectOverwrite(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	can := b.Alloca("c", ir.I64)
	can.SetMeta("canary", "1")
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can))
	b.Store(ir.ConstInt(ir.I64, 0x41414141), can) // smash
	b.Cur.Append(ir.NewInstr(ir.OpCanaryCheck, "", ir.Void, can))
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 4})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultCanary {
		t.Fatalf("fault = %v, want canary", res.Fault)
	}
}

func TestCanaryCleanPath(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	can := b.Alloca("c", ir.I64)
	can.SetMeta("canary", "1")
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can))
	b.Cur.Append(ir.NewInstr(ir.OpCanaryCheck, "", ir.Void, can))
	// Re-randomize and check again: the window semantics of §4.4.
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can))
	b.Cur.Append(ir.NewInstr(ir.OpCanaryCheck, "", ir.Void, can))
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 4})
	res := mustRun(t, m, "main")
	if res.Fault != nil {
		t.Fatalf("clean canary path faulted: %v", res.Fault)
	}
	// 4 explicit ops plus the frame-entry installation of the flagged
	// canary slot ("re-randomized on every entry to the function").
	if res.Counters.CanaryOps != 5 {
		t.Fatalf("canary ops = %d, want 5", res.Counters.CanaryOps)
	}
}

func TestPacSignAuthOps(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("p", ir.I64)
	sign := ir.NewInstr(ir.OpPacSign, f.GenName("s"), ir.PointerTo(ir.I64), slot, ir.ConstInt(ir.I64, 99))
	b.Cur.Append(sign)
	auth := ir.NewInstr(ir.OpPacAuth, f.GenName("a"), ir.PointerTo(ir.I64), sign, ir.ConstInt(ir.I64, 99))
	b.Cur.Append(auth)
	// Authenticated pointer must be usable.
	b.Store(ir.ConstInt(ir.I64, 55), auth)
	ld := b.Load(auth)
	b.Ret(ld)
	m := vm.New(numbered(mod), vm.Config{Seed: 6})
	res := mustRun(t, m, "main")
	if res.Fault != nil || res.Ret != 55 {
		t.Fatalf("ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

func TestPacAuthWrongModifierFaults(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("p", ir.I64)
	sign := ir.NewInstr(ir.OpPacSign, f.GenName("s"), ir.PointerTo(ir.I64), slot, ir.ConstInt(ir.I64, 99))
	b.Cur.Append(sign)
	auth := ir.NewInstr(ir.OpPacAuth, f.GenName("a"), ir.PointerTo(ir.I64), sign, ir.ConstInt(ir.I64, 98))
	b.Cur.Append(auth)
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 6})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultPAC {
		t.Fatalf("fault = %v, want pac", res.Fault)
	}
}

func TestSealedGlobalInitialization(t *testing.T) {
	mod := ir.NewModule("t")
	g := mod.NewGlobal("cfg", ir.ArrayOf(ir.I64, 2), nil)
	g.Sealed = true
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	chk := ir.NewInstr(ir.OpCheckLoad, f.GenName("c"), ir.I64, g)
	b.Cur.Append(chk)
	b.Ret(chk)
	m := vm.New(numbered(mod), vm.Config{Seed: 8})
	res := mustRun(t, m, "main")
	if res.Fault != nil || res.Ret != 0 {
		t.Fatalf("sealed global read-before-write: ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

func TestDFIWildcardAllowed(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("x", ir.I64)
	sd := ir.NewInstr(ir.OpSetDef, "", ir.Void, slot)
	sd.DefID = vm.DFIWildcard
	b.Cur.Append(sd)
	cd := ir.NewInstr(ir.OpChkDef, "", ir.Void, slot)
	cd.Allowed = []int{42} // wildcard must pass anyway
	b.Cur.Append(cd)
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 9})
	res := mustRun(t, m, "main")
	if res.Fault != nil {
		t.Fatalf("wildcard def should always be allowed, got %v", res.Fault)
	}
}

func TestDFIMismatchFaults(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	slot := b.Alloca("x", ir.I64)
	sd := ir.NewInstr(ir.OpSetDef, "", ir.Void, slot)
	sd.DefID = 7
	b.Cur.Append(sd)
	cd := ir.NewInstr(ir.OpChkDef, "", ir.Void, slot)
	cd.Allowed = []int{1, 2, 3}
	b.Cur.Append(cd)
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 9})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultDFI {
		t.Fatalf("fault = %v, want dfi", res.Fault)
	}
}

func TestStackFrameReuseIsClean(t *testing.T) {
	// Frames must be zeroed on entry so stale data never leaks between
	// calls (determinism of the simulation).
	m := machine(t, `
int taintframe() {
	char buf[32];
	memset(buf, 'Z', 31);
	return 0;
}
int readframe() {
	char buf[32];
	return buf[5];
}
int main() {
	taintframe();
	return readframe();
}`, "")
	res := mustRun(t, m, "main")
	if res.Fault != nil || res.Ret != 0 {
		t.Fatalf("frame reuse leaked: ret=%d fault=%v", int64(res.Ret), res.Fault)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *vm.Result {
		m := machine(t, `
int main() {
	char buf[16];
	fgets(buf, 16);
	long h = 0;
	for (int i = 0; buf[i] != 0; i++) { h = h * 31 + buf[i]; }
	printf("%d\n", h);
	return h % 1000;
}`, "seed-input\n")
		return mustRun(t, m, "main")
	}
	a, b := run(), run()
	if a.Ret != b.Ret || string(a.Stdout) != string(b.Stdout) || a.Counters.Cycles != b.Counters.Cycles {
		t.Fatal("identical machines must produce identical runs")
	}
}

// TestMachinesShareModule: vm.New writes nothing into its module, so
// machines built from one module run concurrently, on either engine,
// and agree on every result.
func TestMachinesShareModule(t *testing.T) {
	mod, err := minic.Compile("t", `
int total;
int main() {
	char buf[16];
	fgets(buf, 16);
	for (int i = 0; buf[i] != 0; i++) { total = total + buf[i]; }
	printf("%s %d\n", buf, total);
	return total % 256;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, core.SchemePythia); err != nil {
		t.Fatal(err)
	}
	res := make([]*vm.Result, 8)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := vm.New(mod, vm.Config{Seed: 7, Reference: i%2 == 1})
			m.Stdin.SetInput([]byte("shared\n"))
			r, err := m.Run("main")
			if err != nil {
				t.Error(err)
				return
			}
			res[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range res {
		if r.Fault != nil {
			t.Fatalf("machine %d faulted: %v", i, r.Fault)
		}
		if r.Ret != res[0].Ret || string(r.Stdout) != string(res[0].Stdout) || *r.Counters != *res[0].Counters {
			t.Errorf("machine %d: ret %d stdout %q counters %+v, machine 0: ret %d stdout %q counters %+v",
				i, r.Ret, r.Stdout, *r.Counters, res[0].Ret, res[0].Stdout, *res[0].Counters)
		}
	}
	if res[0].Counters.CanaryOps == 0 {
		t.Error("the Pythia module ran no canary checks")
	}
}

func TestPoisonedPointerDereferenceFaults(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	poisoned := ir.ConstInt(ir.I64, int64(uint64(0x2000_0000)|pa.PoisonBit))
	ptr := b.Cast(ir.OpIntToPtr, poisoned, ir.PointerTo(ir.I64))
	ld := b.Load(ptr)
	b.Ret(ld)
	m := vm.New(numbered(mod), vm.Config{Seed: 3})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultSegv {
		t.Fatalf("fault = %v, want segv on poisoned pointer", res.Fault)
	}
}

// TestCanaryRerandomizationVoidsLeaks proves the §4.4 window property:
// a canary value leaked through a buffer over-read is useless once the
// canary has been re-randomized — writing the stale value back fails
// authentication.
func TestCanaryRerandomizationVoidsLeaks(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	can := b.Alloca("c", ir.I64)
	can.SetMeta("canary", "1")
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can))
	leaked := b.Load(can)                                       // attacker over-reads the canary value
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can)) // window closes
	b.Store(leaked, can)                                        // attacker replays the stale value
	b.Cur.Append(ir.NewInstr(ir.OpCanaryCheck, "", ir.Void, can))
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 12})
	res := mustRun(t, m, "main")
	if res.Fault == nil || res.Fault.Kind != vm.FaultCanary {
		t.Fatalf("stale canary replay must fail authentication, got %v", res.Fault)
	}
}

// TestCanaryReplayWithinWindow is the complement: replaying the value
// while the window is still open passes (the attacker gained nothing —
// the value is already there).
func TestCanaryReplayWithinWindow(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	can := b.Alloca("c", ir.I64)
	can.SetMeta("canary", "1")
	b.Cur.Append(ir.NewInstr(ir.OpCanarySet, "", ir.Void, can))
	leaked := b.Load(can)
	b.Store(leaked, can)
	b.Cur.Append(ir.NewInstr(ir.OpCanaryCheck, "", ir.Void, can))
	b.Ret(ir.ConstInt(ir.I64, 0))
	m := vm.New(numbered(mod), vm.Config{Seed: 12})
	res := mustRun(t, m, "main")
	if res.Fault != nil {
		t.Fatalf("same-window replay is a no-op, got %v", res.Fault)
	}
}
