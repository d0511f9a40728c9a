package slice_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/slice"
)

// moduleValues lists mod's values in the order the slicer numbers them.
func moduleValues(mod *ir.Module) []ir.Value {
	var out []ir.Value
	for _, g := range mod.Globals {
		out = append(out, g)
	}
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				out = append(out, in)
			}
		}
		for _, p := range f.Params {
			out = append(out, p)
		}
	}
	return out
}

// TestFactsBindToADecode reads one analysis's Facts against a second
// decode of the analyzed module: every value answers as its counterpart
// does in the report, a value created after Bind is in no set and
// points nowhere, and another module does not bind.
func TestFactsBindToADecode(t *testing.T) {
	checked := 0
	for _, p := range goldenPrograms(true) {
		mod := compile(t, p)
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		copyMod, err := ir.DecodeModule(enc)
		if err != nil {
			t.Fatal(err)
		}
		vr := slice.AnalyzeVulnerabilities(mod)
		vb, err := vr.Facts().Bind(copyMod)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		orig, bound := moduleValues(mod), moduleValues(copyMod)
		counterpart := make(map[ir.Value]ir.Value, len(orig))
		for i, v := range orig {
			counterpart[v] = bound[i]
		}
		cpa := make(map[ir.Value]bool)
		for _, v := range vb.CPAVars() {
			cpa[v] = true
		}
		if len(cpa) != len(vr.CPAVars) {
			t.Fatalf("%s: %d CPA variables bound, the report has %d", p.name, len(cpa), len(vr.CPAVars))
		}
		for i, v := range orig {
			b := bound[i]
			if cpa[b] != vr.CPAVars[v] || vb.Pythia(b) != vr.PythiaVars[v] || vb.TaintRoot(b) != vr.Taint.Roots[v] {
				t.Fatalf("%s: %s: sets differ from the report's", p.name, v.Operand())
			}
			objs := vr.Analysis.AA.PointsTo(v)
			roots := vb.PointsTo(b)
			if len(roots) != len(objs) {
				t.Fatalf("%s: %s points to %d objects, the report says %d", p.name, v.Operand(), len(roots), len(objs))
			}
			for k, obj := range objs {
				var r ir.Value = obj.Heap
				if obj.Alloca != nil {
					r = obj.Alloca
				} else if obj.Global != nil {
					r = obj.Global
				}
				if roots[k] != counterpart[r] {
					t.Fatalf("%s: %s: object %d is %s, want %s", p.name, v.Operand(), k, roots[k].Operand(), obj.Name())
				}
			}
		}

		// A pass's new instruction keeps ID 0 until renumbering; it must
		// not answer as its function's first instruction, here an alloca,
		// which points to its own object.
		for _, f := range copyMod.Defined() {
			first := f.Entry().Instrs[0]
			if first.Op != ir.OpAlloca || len(vb.PointsTo(first)) == 0 {
				continue
			}
			fresh := ir.NewInstr(ir.OpAlloca, "fresh", first.Typ)
			fresh.AllocTy = first.AllocTy
			first.Block.InsertBefore(fresh, first)
			if vb.Pythia(fresh) || vb.TaintRoot(fresh) || vb.MayHoldHeapPointer(fresh) || vb.PointsTo(fresh) != nil {
				t.Fatalf("%s: a value created after Bind answers as %s", p.name, first.Operand())
			}
			checked++
			break
		}

		other := compile(t, program{"other", `int main() { return 0; }`})
		if _, err := vr.Facts().Bind(other); err == nil {
			t.Fatalf("%s: its facts bound to another module", p.name)
		}
	}
	if checked == 0 {
		t.Fatal("no program starts a function with an alloca")
	}
}
