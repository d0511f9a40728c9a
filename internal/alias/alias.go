// Package alias implements an Andersen-style inclusion-based points-to
// analysis over the IR, whole-module and field-insensitive, with a
// context-insensitivity cutoff that models the paper's admission that
// "Pythia cannot extend the backward slice to the input channel due to
// complex inter-procedural alias analysis" in some cases.
//
// Objects are allocas, globals, and heap allocation call sites. The
// solver propagates: address-of, copy (phi/select/cast/gep), load,
// store, call-argument and return-value constraints to a fixpoint.
package alias

import (
	"repro/internal/ir"
)

// Object is an abstract memory object.
type Object struct {
	ID int
	// Alloca/Global/Heap: exactly one is set.
	Alloca *ir.Instr
	Global *ir.Global
	Heap   *ir.Instr // the allocation call site
	Fn     *ir.Func  // owning function (nil for globals)
}

// Kind describes an object's storage class.
func (o *Object) Kind() string {
	switch {
	case o.Alloca != nil:
		return "stack"
	case o.Global != nil:
		return "global"
	default:
		return "heap"
	}
}

// Name returns a debug label.
func (o *Object) Name() string {
	switch {
	case o.Alloca != nil:
		return "%" + o.Alloca.Nam
	case o.Global != nil:
		return "@" + o.Global.GName
	default:
		return "heap:" + o.Heap.Nam
	}
}

// Result is the solved points-to relation.
type Result struct {
	Objects []*Object

	objOfAlloca map[*ir.Instr]*Object
	objOfGlobal map[*ir.Global]*Object
	objOfHeap   map[*ir.Instr]*Object

	// pts maps each pointer-valued node to its points-to set (object IDs).
	pts map[node]map[int]bool
	// heapPts maps object ID -> points-to set of the pointer *stored in*
	// that object (field-insensitive).
	heapPts map[int]map[int]bool
}

// node is a points-to graph node: an SSA value or parameter.
type node struct{ v ir.Value }

// Analyze runs the analysis over mod.
func Analyze(mod *ir.Module) *Result {
	r := &Result{
		objOfAlloca: make(map[*ir.Instr]*Object),
		objOfGlobal: make(map[*ir.Global]*Object),
		objOfHeap:   make(map[*ir.Instr]*Object),
		pts:         make(map[node]map[int]bool),
		heapPts:     make(map[int]map[int]bool),
	}
	r.collectObjects(mod)
	solver := &solver{r: r}
	solver.collectConstraints(mod)
	solver.solve()
	return r
}

func (r *Result) newObject(o *Object) *Object {
	o.ID = len(r.Objects)
	r.Objects = append(r.Objects, o)
	return o
}

func (r *Result) collectObjects(mod *ir.Module) {
	for _, g := range mod.Globals {
		r.objOfGlobal[g] = r.newObject(&Object{Global: g})
	}
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpAlloca:
					r.objOfAlloca[in] = r.newObject(&Object{Alloca: in, Fn: f})
				case in.Op == ir.OpCall && isAllocFn(in.Callee.FName):
					r.objOfHeap[in] = r.newObject(&Object{Heap: in, Fn: f})
				}
			}
		}
	}
}

func isAllocFn(name string) bool {
	switch name {
	case "malloc", "calloc", "secure_malloc", "mmap":
		return true
	}
	return false
}

// constraint kinds.
type copyEdge struct{ from, to node }
type loadEdge struct{ from, to node }  // to ⊇ *from
type storeEdge struct{ from, to node } // *to ⊇ from

type solver struct {
	r      *Result
	copies []copyEdge
	loads  []loadEdge
	stores []storeEdge
}

func (s *solver) addPts(n node, obj int) bool {
	set := s.r.pts[n]
	if set == nil {
		set = make(map[int]bool)
		s.r.pts[n] = set
	}
	if set[obj] {
		return false
	}
	set[obj] = true
	return true
}

func (s *solver) addHeapPts(obj, pointee int) bool {
	set := s.r.heapPts[obj]
	if set == nil {
		set = make(map[int]bool)
		s.r.heapPts[obj] = set
	}
	if set[pointee] {
		return false
	}
	set[pointee] = true
	return true
}

// collectConstraints walks the module once gathering base facts and edges.
func (s *solver) collectConstraints(mod *ir.Module) {
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				s.instrConstraints(f, b, in)
			}
		}
	}
	// Globals used directly as operands point to their own object; seed
	// them wherever they appear.
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				seed := func(v ir.Value) {
					if g, ok := v.(*ir.Global); ok {
						s.addPts(node{g}, s.r.objOfGlobal[g].ID)
					}
				}
				for _, a := range in.Args {
					seed(a)
				}
				for _, e := range in.Incoming {
					seed(e.Val)
				}
			}
		}
	}
}

func (s *solver) instrConstraints(f *ir.Func, b *ir.Block, in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		s.addPts(node{in}, s.r.objOfAlloca[in].ID)
	case ir.OpGEP, ir.OpIntToPtr, ir.OpPtrToInt, ir.OpPacSign, ir.OpPacAuth, ir.OpPacStrip:
		// Field-insensitive: derived pointers alias the base object.
		s.copies = append(s.copies, copyEdge{from: node{in.Args[0]}, to: node{in}})
	case ir.OpPhi:
		for _, e := range in.Incoming {
			s.copies = append(s.copies, copyEdge{from: node{e.Val}, to: node{in}})
		}
	case ir.OpSelect:
		s.copies = append(s.copies, copyEdge{from: node{in.Args[1]}, to: node{in}})
		s.copies = append(s.copies, copyEdge{from: node{in.Args[2]}, to: node{in}})
	case ir.OpLoad:
		if ir.IsPtr(in.Typ) {
			s.loads = append(s.loads, loadEdge{from: node{in.Args[0]}, to: node{in}})
		}
	case ir.OpStore:
		if ir.IsPtr(in.Args[0].Type()) {
			s.stores = append(s.stores, storeEdge{from: node{in.Args[0]}, to: node{in.Args[1]}})
		}
	case ir.OpCall:
		callee := in.Callee
		if isAllocFn(callee.FName) {
			s.addPts(node{in}, s.r.objOfHeap[in].ID)
			return
		}
		if callee.IsDecl() {
			// Channel/libc functions that return their destination
			// argument (strcpy, memcpy...) propagate it.
			if ir.IsPtr(callee.Sig.Ret) && len(in.Args) > 0 && ir.IsPtr(in.Args[0].Type()) {
				s.copies = append(s.copies, copyEdge{from: node{in.Args[0]}, to: node{in}})
			}
			return
		}
		// Arguments flow into parameters; returns flow back.
		for i, p := range callee.Params {
			if i < len(in.Args) && ir.IsPtr(p.Typ) {
				s.copies = append(s.copies, copyEdge{from: node{in.Args[i]}, to: node{p}})
			}
		}
		if ir.IsPtr(callee.Sig.Ret) {
			for _, cb := range callee.Blocks {
				for _, ci := range cb.Instrs {
					if ci.Op == ir.OpRet && len(ci.Args) == 1 {
						s.copies = append(s.copies, copyEdge{from: node{ci.Args[0]}, to: node{in}})
					}
				}
			}
		}
	}
}

// solve iterates to a fixpoint.
func (s *solver) solve() {
	changed := true
	for changed {
		changed = false
		for _, e := range s.copies {
			for obj := range s.r.pts[e.from] {
				if s.addPts(e.to, obj) {
					changed = true
				}
			}
		}
		for _, e := range s.loads {
			for obj := range s.r.pts[e.from] {
				for pointee := range s.r.heapPts[obj] {
					if s.addPts(e.to, pointee) {
						changed = true
					}
				}
			}
		}
		for _, e := range s.stores {
			for obj := range s.r.pts[e.to] {
				for pointee := range s.r.pts[e.from] {
					if s.addHeapPts(obj, pointee) {
						changed = true
					}
				}
			}
		}
	}
}

// PointsTo returns the objects value v may point to.
func (r *Result) PointsTo(v ir.Value) []*Object {
	var out []*Object
	for id := range r.pts[node{v}] {
		out = append(out, r.Objects[id])
	}
	return out
}

// ObjectOf returns the abstract object for an alloca/global/heap-call
// root value, or nil.
func (r *Result) ObjectOf(root ir.Value) *Object {
	switch x := root.(type) {
	case *ir.Instr:
		if x.Op == ir.OpAlloca {
			return r.objOfAlloca[x]
		}
		if x.Op == ir.OpCall {
			return r.objOfHeap[x]
		}
	case *ir.Global:
		return r.objOfGlobal[x]
	}
	return nil
}

// MayPointToObject reports whether pointer value p may reference obj.
func (r *Result) MayPointToObject(p ir.Value, obj *Object) bool {
	return obj != nil && r.pts[node{p}][obj.ID]
}
