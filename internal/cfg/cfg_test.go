package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/minic"
)

// diamond builds:  entry -> {then, else} -> join -> ret
func diamond(t *testing.T) (*ir.Func, *cfg.Graph) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.I64, []string{"x"}, []ir.Type{ir.I64})
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	b := ir.NewBuilder(f, entry)
	cond := b.ICmp(ir.PredGT, f.Params[0], ir.ConstInt(ir.I64, 0))
	b.CondBr(cond, then, els)
	b.SetBlock(then)
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, ir.ConstInt(ir.I64, 1), then)
	ir.AddIncoming(phi, ir.ConstInt(ir.I64, 2), els)
	join.Remove(phi)
	join.Instrs = append([]*ir.Instr{phi}, join.Instrs...)
	phi.Block = join
	b.Ret(phi)
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return f, cfg.New(f)
}

func TestRPOAndPreds(t *testing.T) {
	f, g := diamond(t)
	if len(g.RPO) != 4 || g.RPO[0] != f.Entry() {
		t.Fatalf("RPO = %v", names(g.RPO))
	}
	join := f.Blocks[3]
	if len(g.Preds[join]) != 2 {
		t.Fatalf("join preds = %d, want 2", len(g.Preds[join]))
	}
}

func names(bs []*ir.Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	return out
}

func TestDominators(t *testing.T) {
	f, g := diamond(t)
	entry, then, els, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if g.IDom[then] != entry || g.IDom[els] != entry || g.IDom[join] != entry {
		t.Fatal("idoms of the diamond must all be entry")
	}
	if !g.Dominates(entry, join) || g.Dominates(then, join) {
		t.Fatal("Dominates broken on diamond")
	}
	if !g.Dominates(join, join) {
		t.Fatal("dominance must be reflexive")
	}
}

func TestDominanceFrontiers(t *testing.T) {
	f, g := diamond(t)
	df := g.DominanceFrontiers()
	then, els, join := f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if len(df[then]) != 1 || df[then][0] != join {
		t.Fatalf("DF(then) = %v", names(df[then]))
	}
	if len(df[els]) != 1 || df[els][0] != join {
		t.Fatalf("DF(else) = %v", names(df[els]))
	}
}

// loopFunc compiles a doubly-nested loop.
func loopFunc(t *testing.T) *ir.Func {
	t.Helper()
	mod, err := minic.Compile("t", `
int main() {
	int s = 0;
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			s += i * j;
		}
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return mod.Func("main")
}

// TestIDomIsProperDominator is the dominator-tree invariant: the
// immediate dominator of every non-entry reachable block strictly
// dominates it.
func TestIDomIsProperDominator(t *testing.T) {
	f := loopFunc(t)
	g := cfg.New(f)
	for _, blk := range g.RPO[1:] {
		id := g.IDom[blk]
		if id == nil || id == blk {
			t.Fatalf("block %s has no proper idom", blk.Name)
		}
		if !g.Dominates(id, blk) {
			t.Fatalf("idom(%s)=%s does not dominate it", blk.Name, id.Name)
		}
	}
}

func TestUnreachableBlocks(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	b.Ret(nil)
	dead := f.NewBlock("dead")
	b.SetBlock(dead)
	b.Ret(nil)
	g := cfg.New(f)
	if g.Reachable(dead) {
		t.Fatal("dead block reported reachable")
	}
	if !g.Reachable(f.Entry()) {
		t.Fatal("entry must be reachable")
	}
	if g.Dominates(dead, f.Entry()) || g.Dominates(f.Entry(), dead) {
		t.Fatal("dominance over unreachable blocks must be false")
	}
}

// TestDomChildrenInBlockOrder: entry dominates then, else and join
// directly, and lists them in block order on every build.
func TestDomChildrenInBlockOrder(t *testing.T) {
	f, _ := diamond(t)
	want := names(f.Blocks[1:])
	for i := 0; i < 20; i++ {
		got := names(cfg.New(f).DomChildren[f.Entry()])
		if len(got) != len(want) {
			t.Fatalf("entry's dominator children = %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("build %d: entry's dominator children = %v, want %v", i, got, want)
			}
		}
	}
}
