package dataflow_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/minic"
)

// compile returns the named function from MiniC source (pre-mem2reg, so
// memory chains are visible).
func compile(t *testing.T, src, fn string) *ir.Func {
	t.Helper()
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Func(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	f.Renumber()
	return f
}

func allocaNamed(t *testing.T, f *ir.Func, hint string) *ir.Instr {
	t.Helper()
	for _, a := range f.Allocas() {
		if a.GetMeta("var") == hint {
			return a
		}
	}
	t.Fatalf("no alloca for %q", hint)
	return nil
}

const chainsSrc = `
int main() {
	int x;
	int arr[4];
	x = 1;
	arr[0] = x;
	x = 2;
	int y = x + arr[0];
	return y;
}`

func TestMemChains(t *testing.T) {
	f := compile(t, chainsSrc, "main")
	c := dataflow.Build(f)
	x := allocaNamed(t, f, "x")
	arr := allocaNamed(t, f, "arr")
	if got := len(c.MemDefs[ir.Value(x)]); got != 2 {
		t.Fatalf("x has %d stores, want 2", got)
	}
	if got := len(c.MemUses[ir.Value(x)]); got != 2 {
		t.Fatalf("x has %d loads, want 2 (arr[0]=x and x+...)", got)
	}
	if got := len(c.MemDefs[ir.Value(arr)]); got != 1 {
		t.Fatalf("arr has %d stores, want 1", got)
	}
	if got := len(c.MemUses[ir.Value(arr)]); got != 1 {
		t.Fatalf("arr has %d loads, want 1", got)
	}
}

func TestSSAUses(t *testing.T) {
	f := compile(t, chainsSrc, "main")
	c := dataflow.Build(f)
	// Every instruction operand must be registered as a use.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				found := false
				for _, u := range c.Uses[a] {
					if u.User == in && u.Arg == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("use (%v, arg %d) of %v not recorded", in, i, a.Operand())
				}
			}
		}
	}
}

func TestMemRoot(t *testing.T) {
	f := compile(t, chainsSrc, "main")
	arr := allocaNamed(t, f, "arr")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP {
				if root := dataflow.MemRoot(in); root != ir.Value(arr) {
					t.Fatalf("gep root = %v, want arr", root)
				}
			}
		}
	}
}

func TestMemRootUnresolvable(t *testing.T) {
	f := compile(t, `
int main() {
	int *p = malloc(32);
	*p = 5;
	return *p;
}`, "main")
	// The load/store through the malloc'd pointer dereference chains
	// back to a load result — no static root.
	var derefStores int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				if root := dataflow.MemRoot(in.Args[1]); root == nil {
					derefStores++
				}
			}
		}
	}
	if derefStores == 0 {
		t.Fatal("expected at least one unresolvable store")
	}
}

func findOp(f *ir.Func, op ir.Op) *ir.Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				return in
			}
		}
	}
	return nil
}

func TestReachingDefs(t *testing.T) {
	f := compile(t, chainsSrc, "main")
	g := cfg.New(f)
	rd := dataflow.ComputeReaching(f, g)
	if len(rd.Defs) != 4 { // x=1, arr[0]=x, x=2, y=...
		t.Fatalf("numbered %d defs, want 4", len(rd.Defs))
	}
	// Every load of x may observe both stores to x (field-insensitive
	// per-object sets, the DFI model).
	x := allocaNamed(t, f, "x")
	for ld, allowed := range rd.AtLoad {
		if dataflow.MemRoot(ld.Args[0]) != ir.Value(x) {
			continue
		}
		if len(allowed) != 2 {
			t.Fatalf("load of x allows %d defs, want 2", len(allowed))
		}
	}
	// DefID maps stores consistently.
	for _, d := range rd.Defs {
		if rd.DefID(d.Store) != d.ID {
			t.Fatal("DefID mismatch")
		}
	}
	if rd.DefID(findOp(f, ir.OpRet)) != -1 {
		t.Fatal("DefID of non-store must be -1")
	}
}
