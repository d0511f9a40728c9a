package dfi_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dfi"
	"repro/internal/ir"
	"repro/internal/vm"
)

func apply(t *testing.T, src string) (*ir.Module, *dfi.Report) {
	t.Helper()
	mod, err := core.CompileC("t", src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dfi.Apply(mod)
	if err != nil {
		t.Fatal(err)
	}
	return mod, rep
}

const simpleSrc = `
void pin(long *x) { }
int main() {
	long v;
	pin(&v);
	v = 3;
	char buf[8];
	fgets(buf, 8);
	if (v > 1) { return v; }
	return 0;
}`

func TestInstrumentationCounts(t *testing.T) {
	mod, rep := apply(t, simpleSrc)
	if rep.SetDefs == 0 || rep.ChkDefs == 0 {
		t.Fatalf("no instrumentation: %+v", rep)
	}
	if rep.ICSites != 1 {
		t.Fatalf("IC sites = %d, want 1", rep.ICSites)
	}
	if rep.WildcardSites != 0 {
		t.Fatalf("resolvable fgets flagged wildcard: %+v", rep)
	}
	// Verified output IR.
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
}

func TestWildcardOnPointerArithDestination(t *testing.T) {
	_, rep := apply(t, `
int main() {
	char buf[16];
	int off;
	scanf("%d", &off);
	gets(buf + off);
	return buf[0];
}`)
	if rep.WildcardSites != 1 {
		t.Fatalf("pointer-arithmetic destination must be wildcard: %+v", rep)
	}
}

func TestBenignRunsClean(t *testing.T) {
	mod, _ := apply(t, simpleSrc)
	m := vm.New(mod, vm.Config{Seed: 2})
	m.Stdin.SetInput([]byte("hi\n"))
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil {
		t.Fatalf("false positive: %v", res.Fault)
	}
	if res.Ret != 3 {
		t.Fatalf("ret = %d, want 3", int64(res.Ret))
	}
	if res.Counters.DFIOps == 0 {
		t.Fatal("no DFI checks executed")
	}
}

func TestDetectsOverflowWithResolvableDest(t *testing.T) {
	mod, _ := apply(t, `
void pin(long *x) { }
int main() {
	char buf[8];
	long gate;
	pin(&gate);
	gate = 0;
	gets(buf);
	if (gate != 0) { return 99; }
	return 0;
}`)
	m := vm.New(mod, vm.Config{Seed: 2})
	m.Stdin.SetInput([]byte("AAAAAAAAAAAAAAAAAAAAAAAA\n"))
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Kind != vm.FaultDFI {
		t.Fatalf("fault = %v, want dfi detection", res.Fault)
	}
}

func TestGlobalStoresVisibleAcrossFunctions(t *testing.T) {
	mod, _ := apply(t, `
long g;
void setter() { g = 11; }
long getter() { return g; }
int main() {
	setter();
	return getter();
}`)
	m := vm.New(mod, vm.Config{Seed: 2})
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil {
		t.Fatalf("cross-function global access must be permitted: %v", res.Fault)
	}
	if res.Ret != 11 {
		t.Fatalf("ret = %d", int64(res.Ret))
	}
}

func TestWrapperChannelIDPropagation(t *testing.T) {
	mod, rep := apply(t, `
void mycopy(char *dst, char *src, long n) { memcpy(dst, src, n); }
int main() {
	char a[8]; char b[8];
	fgets(a, 8);
	mycopy(b, a, 4);
	return b[0];
}`)
	if rep.ICSites < 3 { // fgets, memcpy (inner), mycopy (wrapper call)
		t.Fatalf("IC sites = %d, want >= 3", rep.ICSites)
	}
	m := vm.New(mod, vm.Config{Seed: 2})
	m.Stdin.SetInput([]byte("xy\n"))
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil {
		t.Fatalf("wrapper write must carry a permitted id: %v", res.Fault)
	}
	if byte(res.Ret) != 'x' {
		t.Fatalf("ret = %q", byte(res.Ret))
	}
}

func TestCallsiteMetaWellFormed(t *testing.T) {
	mod, _ := apply(t, simpleSrc)
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || !in.Callee.Channel.IsChannel() {
					continue
				}
				if in.DefID == 0 {
					t.Fatalf("channel call without a DFI definition id: %v", in)
				}
			}
		}
	}
}
