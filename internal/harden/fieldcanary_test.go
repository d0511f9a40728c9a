package harden_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// intraStructSrc: the §6.4 limitation scenario — the channel overflows a
// struct's array field into a sibling privilege field of the SAME
// object, so the frame-level canaries (which sit between objects) never
// see it.
const intraStructSrc = `
struct session {
	char name[8];
	long priv;
};
int main() {
	struct session s;
	s.priv = 0;
	gets(s.name);
	if (s.priv != 0) {
		printf("GRANTED\n");
		return 99;
	}
	printf("normal\n");
	return 0;
}`

const benignIn = "bob\n"

// attackIn is 15 bytes + NUL: it exactly fills name[8]+priv without
// leaving the struct, so no frame canary is ever crossed.
const attackIn = "AAAAAAAAAAAAAAA\n"

func runCase(t *testing.T, scheme core.Scheme, stdin string) *vm.Result {
	t.Helper()
	prog, err := core.Build("t", intraStructSrc, scheme)
	if err != nil {
		t.Fatalf("%v: %v", scheme, err)
	}
	res, err := prog.Run(stdin)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIntraStructOverflowBendsVanilla(t *testing.T) {
	res := runCase(t, core.SchemeVanilla, attackIn)
	if res.Fault != nil || int64(res.Ret) != 99 {
		t.Fatalf("ground truth: ret=%d fault=%v, want bent", int64(res.Ret), res.Fault)
	}
}

func TestStandardPythiaMissesIntraStruct(t *testing.T) {
	// The documented §6.4 limitation: the overflow never leaves the
	// object, so no frame canary is crossed.
	res := runCase(t, core.SchemePythia, attackIn)
	if res.Fault != nil {
		t.Skipf("standard Pythia detected it (%v) — layout change made the case inter-object", res.Fault)
	}
	if int64(res.Ret) != 99 {
		t.Fatalf("expected the bend to succeed under standard Pythia, ret=%d", int64(res.Ret))
	}
}

func TestFieldCanariesDetectIntraStruct(t *testing.T) {
	benign := runCase(t, core.SchemeFields, benignIn)
	if benign.Fault != nil {
		t.Fatalf("benign false positive: %v", benign.Fault)
	}
	if int64(benign.Ret) != 0 {
		t.Fatalf("benign ret=%d", int64(benign.Ret))
	}
	res := runCase(t, core.SchemeFields, attackIn)
	if res.Fault == nil {
		t.Fatalf("field canaries missed the intra-object overflow (ret=%d)", int64(res.Ret))
	}
	if res.Fault.Kind != vm.FaultCanary {
		t.Fatalf("fault = %v, want canary", res.Fault)
	}
}

func TestFieldCanaryLayoutRewrite(t *testing.T) {
	mod, err := core.CompileC("t", intraStructSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, core.SchemeFields); err != nil {
		t.Fatal(err)
	}
	f := mod.Func("main")
	var padded *ir.StructType
	for _, a := range f.Allocas() {
		if st, ok := a.AllocTy.(*ir.StructType); ok && st.Name == "session.fc" {
			padded = st
		}
	}
	if padded == nil {
		t.Fatal("struct alloca not rewritten")
	}
	// name[8] + __canary + priv.
	if len(padded.Fields) != 3 {
		t.Fatalf("padded struct has %d fields: %+v", len(padded.Fields), padded.Fields)
	}
	if padded.Fields[1].Name != "__canary0" || !padded.Fields[1].Type.Equal(ir.I64) {
		t.Fatalf("canary field misplaced: %+v", padded.Fields)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
}

func TestFieldCanariesPreserveStructSemantics(t *testing.T) {
	// Field accesses before/after the inserted canary must still hit the
	// right storage.
	src := `
struct rec {
	long a;
	char buf[8];
	long b;
	long c;
};
int main() {
	struct rec r;
	r.a = 1; r.b = 2; r.c = 3;
	strcpy(r.buf, "ok");
	if (strcmp(r.buf, "ok") != 0) { return 90; }
	return r.a * 100 + r.b * 10 + r.c;
}`
	for _, scheme := range []core.Scheme{core.SchemeVanilla, core.SchemeFields} {
		prog, err := core.Build("t", src, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		res, err := prog.Run("")
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault != nil {
			t.Fatalf("%v: %v", scheme, res.Fault)
		}
		if int64(res.Ret) != 123 {
			t.Fatalf("%v: ret=%d, want 123", scheme, int64(res.Ret))
		}
	}
}

// TestFieldCanariesArmedBeforeUse: a struct's field canaries are armed
// right after its alloca, before the struct is written. A write into
// the canary field outside any channel call's window is then caught by
// the return's field-canary check, even on benign input, instead of
// being overwritten by a late arming. A struct declared after other
// code is armed after its alloca, not ahead of it.
func TestFieldCanariesArmedBeforeUse(t *testing.T) {
	const smash = `
struct session { char name[8]; long priv; };
int main() {
	struct session s;
	s.priv = 0;
	gets(s.name);
	s.name[8] = 65;
	if (s.priv != 0) { printf("GRANTED\n"); return 99; }
	printf("normal\n");
	return 0;
}`
	prog, err := core.Build("smash", smash, core.SchemeFields)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(benignIn)
	if err != nil {
		t.Fatal(err)
	}
	var at *ir.Instr
	for _, b := range prog.Mod.Func("main").Blocks {
		for _, in := range b.Instrs {
			if res.Fault != nil && in.String() == res.Fault.Instr {
				at = in
			}
		}
	}
	if at == nil || res.Fault.Kind != vm.FaultCanary || at.Op != ir.OpCanaryCheck ||
		!strings.HasPrefix(at.Args[0].Name(), "fc.") || at.Block.Terminator().Op != ir.OpRet {
		t.Fatalf("fault = %v, want a canary fault at a return's field-canary check", res.Fault)
	}

	late := strings.Replace(intraStructSrc, "\tstruct session s;\n", "\tprintf(\"hello\\n\");\n\tstruct session s;\n", 1)
	prog, err = core.Build("late", late, core.SchemeFields)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in    string
		fault bool
	}{{benignIn, false}, {attackIn, true}} {
		res, err := prog.Run(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Fault != nil) != c.fault || (c.fault && res.Fault.Kind != vm.FaultCanary) || (!c.fault && int64(res.Ret) != 0) {
			t.Errorf("declared after a call, input %q: ret=%d fault=%v", c.in, int64(res.Ret), res.Fault)
		}
	}
}
