package irpass_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// run executes mod's main on stdin, on the reference engine when ref is
// set, and fails the test on an error or a fault.
func run(t *testing.T, mod *ir.Module, stdin string, ref bool) *vm.Result {
	t.Helper()
	m := vm.New(mod, vm.Config{Seed: 3, Reference: ref})
	m.Stdin.SetInput([]byte(stdin))
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	return res
}

// semantic-preservation corpus: programs whose behaviour must be
// identical before and after optimization.
var optCorpus = []struct {
	name, src, stdin string
}{
	{"scalars", `
int main() {
	int a = 3; int b; int c;
	b = a * 7;
	if (b > 10) { c = b - a; } else { c = b + a; }
	while (c < 100) { c = c * 2; }
	return c;
}`, ""},
	{"arrays-survive", `
int main() {
	int arr[4];
	for (int i = 0; i < 4; i++) { arr[i] = i + 10; }
	int *p = &arr[2];
	return *p + arr[0];
}`, ""},
	{"calls", `
int twice(int v) { return v * 2; }
int main() {
	int x = twice(5);
	int y = twice(x);
	return x + y;
}`, ""},
	{"io", `
int main() {
	int k;
	char buf[16];
	scanf("%d", &k);
	fgets(buf, 16);
	printf("%d:%s\n", k + 1, buf);
	return k;
}`, "41\nworld\n"},
	{"use-before-def", `
int main() {
	int x;
	int c = 1;
	if (c) { x = 7; }
	return x;
}`, ""},
	{"diamond", `
int main() {
	int a; int b; int c;
	scanf("%d", &c);
	if (c > 3) { a = 1; b = c; } else { a = 2; b = c * 3; }
	return a * 100 + b;
}`, "5\n"},
	{"else-if-chain", diamondRepro, "5\n"},
	{"nested-loops", `
int main() {
	int total = 0;
	for (int i = 0; i < 6; i++) {
		int j = 0;
		while (j < i) { total = total + i * j; j++; }
		for (int k = 0; k < 3; k++) { total = total + k; }
	}
	return total;
}`, ""},
	{"use-before-def-on-one-path", `
int main() {
	int x; int c;
	scanf("%d", &c);
	if (c > 2) { x = c; }
	return x + 1;
}`, "1\n"},
	{"break-continue", `
int main() {
	int s = 0; int i = 0; int skipped = 0;
	while (1) {
		i++;
		if (i % 3 == 0) { skipped = skipped + 1; continue; }
		if (i > 20) { break; }
		s = s + i;
	}
	for (int j = 0; j < 10; j++) {
		if (j == 2) { continue; }
		if (j == 7) { break; }
		s = s + j * skipped;
	}
	return s;
}`, ""},
	{"read-after-return", deadCodeRepro, ""},
	{"dead-loop-edge", deadLoopRepro, ""},
}

// diamondRepro's joins each merge two sibling arms, so the edge order
// of their phis follows the order of the dominator tree's children.
const diamondRepro = `int main() { int a; int c; scanf("%d", &c); if (c > 3) { a = 1; } else { a = 2; } if (c > 5) { a = a + 3; } else if (c > 4) { a = a + 7; } else { a = a * 2; } return a; }`

// deadCodeRepro reads a promoted local in code after a return, which
// mem2reg's walk never reaches.
const deadCodeRepro = `int main() { int a = 1; return a; a = a + 1; return a; }`

// deadLoopRepro's code after the return branches back to the loop head,
// so the phi there has a predecessor mem2reg's walk never reaches.
const deadLoopRepro = `int main() { int c = 10; while (c) { if (c > 3) { c = c - 1; continue; } c = c - 2; return c; } return 0; }`

func TestOptimizePreservesSemantics(t *testing.T) {
	for _, c := range optCorpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opt := compile(t, c.src)
			irpass.Optimize(opt)
			if err := ir.Verify(opt); err != nil {
				t.Fatalf("optimized module invalid: %v", err)
			}
			if _, err := ir.EncodeModule(opt); err != nil {
				t.Fatalf("optimized module does not encode: %v", err)
			}
			for _, ref := range []bool{false, true} {
				plain := run(t, compile(t, c.src), c.stdin, ref)
				res := run(t, opt, c.stdin, ref)
				if res.Ret != plain.Ret {
					t.Fatalf("reference=%v: optimized ret %d != plain %d", ref, int64(res.Ret), int64(plain.Ret))
				}
				if string(res.Stdout) != string(plain.Stdout) {
					t.Fatalf("reference=%v: optimized stdout %q != plain %q", ref, res.Stdout, plain.Stdout)
				}
			}
		})
	}
}

// TestOptimizeIsDeterministic compiles a program whose joins merge
// sibling arms twenty times: every compile must encode the same.
func TestOptimizeIsDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 20; i++ {
		mod := compile(t, diamondRepro)
		irpass.Optimize(mod)
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("compile %d encodes differently from compile 0", i)
		}
	}
}

func TestMem2RegPromotesScalars(t *testing.T) {
	mod := compile(t, `
int main() {
	int a = 1; int b = 2;
	int arr[4];
	arr[0] = a;
	int *taken = &b;
	return a + *taken + arr[0];
}`)
	f := mod.Func("main")
	before := len(f.Allocas())
	n := irpass.Mem2Reg(f)
	after := len(f.Allocas())
	if n == 0 {
		t.Fatal("nothing promoted")
	}
	if before-after != n {
		t.Fatalf("promoted %d but alloca count dropped by %d", n, before-after)
	}
	// `a` (never address-taken) must be gone; `arr` and `b` must remain.
	names := map[string]bool{}
	for _, a := range f.Allocas() {
		v, _, _ := strings.Cut(a.Nam, ".") // GenName's "<var>.<n>"
		names[v] = true
	}
	if names["a"] {
		t.Fatal("scalar `a` not promoted")
	}
	if !names["arr"] || !names["b"] {
		t.Fatalf("aggregate or address-taken alloca wrongly promoted: %v", names)
	}
}

func TestMem2RegInsertsPhis(t *testing.T) {
	mod := compile(t, `
int main() {
	int x;
	int c = 1;
	if (c > 0) { x = 1; } else { x = 2; }
	return x;
}`)
	f := mod.Func("main")
	irpass.Mem2Reg(f)
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && len(in.Incoming) == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("two-sided definition requires a phi after promotion")
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
}

func TestConstFold(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	sum := b.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 2), ir.ConstInt(ir.I64, 3))
	prod := b.Bin(ir.OpMul, sum, ir.ConstInt(ir.I64, 4))
	cmp := b.ICmp(ir.PredEQ, prod, ir.ConstInt(ir.I64, 20))
	ext := b.Cast(ir.OpZExt, cmp, ir.I64)
	b.Ret(ext)
	irpass.ConstFold(f)
	irpass.DeadCodeElim(f)
	// Everything folds to ret 1 eventually; at minimum the add is gone.
	if n := f.NumInstrs(); n > 3 {
		t.Fatalf("fold left %d instructions", n)
	}
	res := runModule(t, mod)
	if res != 1 {
		t.Fatalf("folded result %d, want 1", res)
	}
}

// foldable builds main(p): two folds (2+3, then that times 4), a dead
// chain on p that cannot fold, and a return of the folded product.
func foldable() (*ir.Module, *ir.Func) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, []string{"p"}, []ir.Type{ir.I64})
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	sum := b.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 2), ir.ConstInt(ir.I64, 3))
	prod := b.Bin(ir.OpMul, sum, ir.ConstInt(ir.I64, 4))
	dead := b.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I64, 1))
	b.Bin(ir.OpMul, dead, ir.ConstInt(ir.I64, 3))
	b.Ret(prod)
	f.Renumber()
	return mod, f
}

// TestFoldAndDCECounts pins what the two passes return: ConstFold the
// instructions it folded, DeadCodeElim the instructions it removed.
func TestFoldAndDCECounts(t *testing.T) {
	_, f := foldable()
	if n := irpass.DeadCodeElim(f); n != 2 {
		t.Fatalf("DeadCodeElim removed %d, want the 2-instruction dead chain", n)
	}
	mod, f := foldable()
	if n := irpass.ConstFold(f); n != 2 {
		t.Fatalf("ConstFold folded %d, want 2", n)
	}
	if n := f.NumInstrs(); n != 1 {
		t.Fatalf("fold left %d instructions, want only the return", n)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	if c, ok := f.Entry().Instrs[0].Args[0].(*ir.Const); !ok || c.Val != 20 {
		t.Fatalf("returns %v, want 20", f.Entry().Instrs[0].Args[0])
	}
}

func TestConstFoldGuardsDivZero(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	div := b.Bin(ir.OpSDiv, ir.ConstInt(ir.I64, 10), ir.ConstInt(ir.I64, 0))
	b.Ret(div)
	irpass.ConstFold(f) // must not panic or fold
	if f.Entry().Instrs[0].Op != ir.OpSDiv {
		t.Fatal("division by zero must not fold away")
	}
}

func TestDCERemovesDeadPure(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	b.Bin(ir.OpAdd, ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2)) // dead
	keep := b.Bin(ir.OpMul, ir.ConstInt(ir.I64, 3), ir.ConstInt(ir.I64, 5))
	b.Ret(keep)
	removed := irpass.DeadCodeElim(f)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if f.NumInstrs() != 2 {
		t.Fatalf("left %d instrs, want 2", f.NumInstrs())
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	mod := compile(t, `
int main() {
	char buf[8];
	strcpy(buf, "hi");
	return 0;
}`)
	f := mod.Func("main")
	before := f.NumInstrs()
	irpass.DeadCodeElim(f)
	// The call (side effect) and the allocas must survive.
	var hasCall bool
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				hasCall = true
			}
		}
	}
	if !hasCall {
		t.Fatal("DCE removed a call with side effects")
	}
	_ = before
}

func runModule(t *testing.T, mod *ir.Module) int64 {
	t.Helper()
	m := vm.New(mod, vm.Config{Seed: 1})
	res, err := m.Run("main")
	if err != nil || res.Fault != nil {
		t.Fatalf("run: %v / %v", err, res.Fault)
	}
	return int64(res.Ret)
}
