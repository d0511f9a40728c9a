package slice

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Facts is what the harden passes read from a vulnerability analysis,
// held by dense value number: the three variable sets, each value's
// points-to objects, and which allocas may hold heap pointers. It holds
// no module pointers, so one analysis of a vanilla compile serves every
// scheme's harden, each over its own decode of the same bytes (Bind).
type Facts struct {
	// shape is the numbering's layout, which Bind checks a module
	// against: the global count, then each defined function's
	// instruction and parameter counts.
	shape []int32
	// flags holds each value's fact bits (flagCPA...).
	flags []uint8
	// The objects value i may point to are pts[ptsOff[i]:ptsOff[i+1]],
	// each as its root's dense number, in alias.Result.PointsTo order.
	ptsOff []int32
	pts    []int32
}

// Fact bits of one value.
const (
	flagCPA       uint8 = 1 << iota // in VulnReport.CPAVars
	flagPythia                      // in VulnReport.PythiaVars
	flagTaintRoot                   // in Taint.Roots
	flagHeapPtr                     // an alloca a store may fill with a heap pointer
)

// walkNumbered calls fn on each of mod's values in dense-number order
// (globals, then each defined function's instructions in block order
// followed by its params) and returns the numbering's shape.
func walkNumbered(mod *ir.Module, fn func(ir.Value)) []int32 {
	shape := []int32{int32(len(mod.Globals))}
	for _, g := range mod.Globals {
		fn(g)
	}
	for _, f := range mod.Defined() {
		n := int32(0)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fn(in)
				n++
			}
		}
		shape = append(shape, n, int32(len(f.Params)))
		for _, p := range f.Params {
			fn(p)
		}
	}
	return shape
}

// Facts extracts what the harden passes read from r.
func (r *VulnReport) Facts() *Facts {
	a := r.Analysis
	f := &Facts{flags: make([]uint8, a.numValues), ptsOff: make([]int32, a.numValues+1)}
	for _, set := range []struct {
		vals map[ir.Value]bool
		bit  uint8
	}{{r.CPAVars, flagCPA}, {r.PythiaVars, flagPythia}, {r.Taint.Roots, flagTaintRoot}} {
		for v := range set.vals {
			if i := a.index(v); i >= 0 {
				f.flags[i] |= set.bit
			}
		}
	}
	// rootOf maps an object ID to its root's dense number.
	rootOf := make([]int32, len(a.AA.Objects))
	for _, obj := range a.AA.Objects {
		rootOf[obj.ID] = a.index(objectRoot(obj))
	}
	var ids []int
	i := 0
	f.shape = walkNumbered(a.Mod, func(v ir.Value) {
		ids = a.AA.AppendPointsTo(ids[:0], v)
		for _, id := range ids {
			f.pts = append(f.pts, rootOf[id])
		}
		f.ptsOff[i+1] = int32(len(f.pts))
		if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca && a.mayHoldHeapPointer(in, ids[:0]) {
			f.flags[i] |= flagHeapPtr
		}
		i++
	})
	return f
}

// mayHoldHeapPointer reports whether a store into alloca al may write a
// pointer to a heap object. buf is scratch space.
func (a *Analysis) mayHoldHeapPointer(al *ir.Instr, buf []int) bool {
	for _, st := range a.Chains(al.Block.Parent).MemDefs[ir.Value(al)] {
		buf = a.AA.AppendPointsTo(buf[:0], st.Args[0])
		for _, id := range buf {
			if a.AA.Objects[id].Heap != nil {
				return true
			}
		}
	}
	return false
}

// Binding reads Facts against one module. It captures the module's
// values when bound, so a pass may edit the module afterwards: a value
// created after Bind is in no set and points nowhere, the way
// alias.Result answers for a value it never saw.
type Binding struct {
	facts   *Facts
	vals    []ir.Value // by dense number
	globals map[*ir.Global]int32
	funcs   map[*ir.Func]funcBase
	pts     []ir.Value // facts.pts as the bound module's roots
}

// Bind reads f against mod, which must be the analyzed module or a
// decode of the same bytes, before any pass edits it.
func (f *Facts) Bind(mod *ir.Module) (*Binding, error) {
	vals := make([]ir.Value, 0, len(f.flags))
	shape := walkNumbered(mod, func(v ir.Value) { vals = append(vals, v) })
	if !slices.Equal(shape, f.shape) {
		return nil, fmt.Errorf("slice: module %s is not the analyzed module", mod.Name)
	}
	b := &Binding{
		facts:   f,
		vals:    vals,
		globals: make(map[*ir.Global]int32, len(mod.Globals)),
		funcs:   make(map[*ir.Func]funcBase),
		pts:     make([]ir.Value, len(f.pts)),
	}
	i := int32(0)
	for _, g := range mod.Globals {
		b.globals[g] = i
		i++
	}
	for k, fn := range mod.Defined() {
		instrs, params := shape[1+2*k], shape[2+2*k]
		b.funcs[fn] = funcBase{instrs: i, params: i + instrs}
		i += instrs + params
	}
	for k, j := range f.pts {
		b.pts[k] = vals[j]
	}
	return b, nil
}

// index returns v's dense number, or -1 for a value the module did not
// hold when bound. An instruction a pass created keeps ID 0 until the
// final renumbering, so identity, not the ID, decides.
func (b *Binding) index(v ir.Value) int32 {
	i := int32(-1)
	switch x := v.(type) {
	case *ir.Instr:
		if x.Block == nil {
			return -1
		}
		if fb, ok := b.funcs[x.Block.Parent]; ok && x.ID < int(fb.params-fb.instrs) {
			i = fb.instrs + int32(x.ID)
		}
	case *ir.Param:
		if fb, ok := b.funcs[x.Parent]; ok {
			i = fb.params + int32(x.Index)
		}
	case *ir.Global:
		if gi, ok := b.globals[x]; ok {
			i = gi
		}
	}
	if i < 0 || int(i) >= len(b.vals) || b.vals[i] != v {
		return -1
	}
	return i
}

func (b *Binding) has(v ir.Value, bit uint8) bool {
	i := b.index(v)
	return i >= 0 && b.facts.flags[i]&bit != 0
}

// Pythia reports whether v is in the refined vulnerable set.
func (b *Binding) Pythia(v ir.Value) bool { return b.has(v, flagPythia) }

// TaintRoot reports whether an input channel may write memory root v.
func (b *Binding) TaintRoot(v ir.Value) bool { return b.has(v, flagTaintRoot) }

// MayHoldHeapPointer reports whether a store into alloca v may write a
// pointer to a heap object.
func (b *Binding) MayHoldHeapPointer(v ir.Value) bool { return b.has(v, flagHeapPtr) }

// CPAVars lists the unrefined vulnerable set in numbering order.
func (b *Binding) CPAVars() []ir.Value { return b.members(flagCPA) }

// PythiaVars lists the refined vulnerable set in numbering order.
func (b *Binding) PythiaVars() []ir.Value { return b.members(flagPythia) }

func (b *Binding) members(bit uint8) []ir.Value {
	var out []ir.Value
	for i, fl := range b.facts.flags {
		if fl&bit != 0 {
			out = append(out, b.vals[i])
		}
	}
	return out
}

// PointsTo returns the roots (alloca, global or allocation call) of
// the objects v may point to, in alias.Result.PointsTo order. The
// caller must not modify the slice.
func (b *Binding) PointsTo(v ir.Value) []ir.Value {
	i := b.index(v)
	if i < 0 {
		return nil
	}
	lo, hi := b.facts.ptsOff[i], b.facts.ptsOff[i+1]
	return b.pts[lo:hi:hi]
}
