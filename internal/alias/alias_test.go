package alias_test

import (
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/minic"
)

func analyze(t *testing.T, src string) (*ir.Module, *alias.Result) {
	t.Helper()
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod, alias.Analyze(mod)
}

func allocaNamed(t *testing.T, mod *ir.Module, fn, hint string) *ir.Instr {
	t.Helper()
	for _, a := range mod.Func(fn).Allocas() {
		if strings.HasPrefix(a.Nam, hint+".") {
			return a
		}
	}
	t.Fatalf("no alloca %q in %s", hint, fn)
	return nil
}

// valueOfLoad finds the value loaded from the named alloca.
func pointerLoadedFrom(t *testing.T, mod *ir.Module, fn, hint string) ir.Value {
	t.Helper()
	a := allocaNamed(t, mod, fn, hint)
	for _, b := range mod.Func(fn).Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad && in.Args[0] == ir.Value(a) {
				return in
			}
		}
	}
	t.Fatalf("no load of %q", hint)
	return nil
}

// sharedObject returns an object both pointer values may point to, or
// nil when their points-to sets are disjoint.
func sharedObject(r *alias.Result, a, b ir.Value) *alias.Object {
	for _, obj := range r.PointsTo(a) {
		if r.MayPointToObject(b, obj) {
			return obj
		}
	}
	return nil
}

func TestAddressOfPointsTo(t *testing.T) {
	mod, r := analyze(t, `
int main() {
	int x; int y;
	int *p = &x;
	int *q = &y;
	*p = 1; *q = 2;
	return x + y;
}`)
	x := allocaNamed(t, mod, "main", "x")
	y := allocaNamed(t, mod, "main", "y")
	p := pointerLoadedFrom(t, mod, "main", "p")
	q := pointerLoadedFrom(t, mod, "main", "q")
	if !r.MayPointToObject(p, r.ObjectOf(x)) {
		t.Fatal("p must point to x")
	}
	if r.MayPointToObject(p, r.ObjectOf(y)) {
		t.Fatal("p must not point to y")
	}
	if sharedObject(r, p, q) != nil {
		t.Fatal("p and q target different objects")
	}
}

func TestPhiMergesPointsTo(t *testing.T) {
	mod, r := analyze(t, `
int main() {
	int x; int y;
	int c;
	scanf("%d", &c);
	int *p;
	if (c > 0) { p = &x; } else { p = &y; }
	*p = 5;
	return x + y;
}`)
	x := allocaNamed(t, mod, "main", "x")
	y := allocaNamed(t, mod, "main", "y")
	p := pointerLoadedFrom(t, mod, "main", "p")
	if !r.MayPointToObject(p, r.ObjectOf(x)) || !r.MayPointToObject(p, r.ObjectOf(y)) {
		t.Fatal("p must may-point to both arms' targets")
	}
	// The passes insert one check per object in PointsTo order, so it
	// must be ascending IDs, never map order.
	for i := 0; i < 20; i++ {
		objs, ids := r.PointsTo(p), r.AppendPointsTo(nil, p)
		if len(objs) != 2 || len(ids) != 2 || objs[0].ID >= objs[1].ID || ids[0] != objs[0].ID || ids[1] != objs[1].ID {
			t.Fatalf("PointsTo %v and AppendPointsTo %v are not both ascending", objs, ids)
		}
	}
}

func TestGEPIsFieldInsensitive(t *testing.T) {
	mod, r := analyze(t, `
int main() {
	int arr[8];
	int *p = &arr[3];
	*p = 1;
	return arr[3];
}`)
	arr := allocaNamed(t, mod, "main", "arr")
	p := pointerLoadedFrom(t, mod, "main", "p")
	if !r.MayPointToObject(p, r.ObjectOf(arr)) {
		t.Fatal("derived element pointer must alias its base object")
	}
}

func TestHeapObjectsPerCallSite(t *testing.T) {
	mod, r := analyze(t, `
int main() {
	long *a = malloc(32);
	long *b = malloc(32);
	*a = 1; *b = 2;
	return *a + *b;
}`)
	a := pointerLoadedFrom(t, mod, "main", "a")
	b := pointerLoadedFrom(t, mod, "main", "b")
	if sharedObject(r, a, b) != nil {
		t.Fatal("distinct allocation sites must not alias")
	}
	if len(r.PointsTo(a)) != 1 || r.PointsTo(a)[0].Kind() != "heap" {
		t.Fatalf("a points to %v", r.PointsTo(a))
	}
}

func TestInterproceduralParamFlow(t *testing.T) {
	mod, r := analyze(t, `
void set(long *dst) { *dst = 9; }
int main() {
	long v;
	set(&v);
	return v;
}`)
	v := allocaNamed(t, mod, "main", "v")
	dst := mod.Func("set").Params[0]
	if !r.MayPointToObject(dst, r.ObjectOf(v)) {
		t.Fatal("callee parameter must point to the caller's object")
	}
}

func TestReturnValueFlow(t *testing.T) {
	mod, r := analyze(t, `
long g;
long *pick() { return &g; }
int main() {
	long *p = pick();
	*p = 3;
	return g;
}`)
	p := pointerLoadedFrom(t, mod, "main", "p")
	var g *ir.Global
	for _, gl := range mod.Globals {
		if gl.GName == "g" {
			g = gl
		}
	}
	if !r.MayPointToObject(p, r.ObjectOf(g)) {
		t.Fatal("returned pointer must carry the callee's points-to set")
	}
}

func TestPointerStoredInMemory(t *testing.T) {
	// p stored into a slot, reloaded through another pointer: the
	// load/store constraints must connect them.
	mod, r := analyze(t, `
int main() {
	int x;
	int *slot;
	int **pp = &slot;
	*pp = &x;
	int *got = slot;
	*got = 4;
	return x;
}`)
	x := allocaNamed(t, mod, "main", "x")
	got := pointerLoadedFrom(t, mod, "main", "got")
	if !r.MayPointToObject(got, r.ObjectOf(x)) {
		t.Fatal("pointer round-tripped through memory lost its points-to set")
	}
}

func TestLibcReturnPropagatesDest(t *testing.T) {
	mod, r := analyze(t, `
int main() {
	char buf[8];
	char *p = strcpy(buf, "hi");
	p[0] = 'x';
	return buf[0];
}`)
	buf := allocaNamed(t, mod, "main", "buf")
	p := pointerLoadedFrom(t, mod, "main", "p")
	if !r.MayPointToObject(p, r.ObjectOf(buf)) {
		t.Fatal("strcpy's return must alias its destination argument")
	}
}

func TestObjectMetadata(t *testing.T) {
	mod, r := analyze(t, `
long g;
int main() {
	int local[2];
	long *h = malloc(16);
	*h = g + local[0];
	return 0;
}`)
	kinds := map[string]int{}
	for _, o := range r.Objects {
		kinds[o.Kind()]++
		if o.Name() == "" {
			t.Fatal("object without a name")
		}
	}
	if kinds["global"] < 1 || kinds["stack"] < 1 || kinds["heap"] != 1 {
		t.Fatalf("object census: %v", kinds)
	}
	_ = mod
}
