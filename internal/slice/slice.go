// Package slice implements the Pythia paper's two program-slicing
// analyses and their intersection:
//
//   - Branch decomposition (Algorithm 1): the backward slice of every
//     conditional branch's predicate over Use-Def chains, extended
//     through memory with alias information — producing the *branch
//     sub-variable* set (Def. 4.1).
//   - Input-channel construction: the forward slice of every value an
//     input channel can write — the set of variables an attacker can
//     influence.
//   - Vulnerable variables: the intersection of the two (§4.1), the set
//     the defenses instrument.
//
// Two slicing modes reproduce the paper's comparison: ModeFull follows
// pointers using the alias analysis (Pythia), while ModeDFI terminates
// at pointer arithmetic and field-sensitive accesses, exactly the
// limitation of the DFI baseline the paper exploits (§6.2).
package slice

import (
	"fmt"
	"slices"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/inputchan"
	"repro/internal/ir"
)

// Mode selects the slicing policy.
type Mode int

// Slicing modes.
const (
	// ModeFull is Pythia's slicer: alias-aware, interprocedural up to
	// PythiaDepth.
	ModeFull Mode = iota
	// ModeDFI is the baseline: intraprocedural, stops at pointer
	// arithmetic (non-constant GEP indices, int/ptr casts) and at
	// field-sensitive accesses (GEP into struct fields).
	ModeDFI
	// ModeGround is the oracle used to score both techniques: like
	// ModeFull but with GroundDepth interprocedural steps.
	ModeGround
)

// Interprocedural depth limits. Pythia's is finite to model the paper's
// admitted truncation under "complex inter-procedural alias analysis".
const (
	PythiaDepth = 3
	GroundDepth = 6
)

// Analysis caches the per-module structures slicing needs. It is never
// written after NewAnalysis returns, so one analysis serves concurrent
// queries; each decomposition keeps its scratch state in a walker.
type Analysis struct {
	Mod   *ir.Module
	AA    *alias.Result
	Sites []inputchan.CallSite

	// Taint is the input-channel forward slice, computed once at
	// construction; the backward slicer consults it to model pointer
	// misdirection (§3: an attacker-controlled stride can position a
	// pointer onto any frame-local object).
	Taint *Taint

	chains    map[*ir.Func]*dataflow.Chains
	graphs    map[*ir.Func]*cfg.Graph
	callersOf map[*ir.Func][]*ir.Instr
	// icByCall maps an input-channel call instruction to its site info.
	icByCall map[*ir.Instr]inputchan.CallSite

	// The dense numbering: globals in module order, then each defined
	// function's instructions (by ID) followed by its params.
	globalIdx map[*ir.Global]int32
	funcIdx   map[*ir.Func]funcBase
	numValues int
	// defs holds, by dense index, what expanding each memory root
	// (global, alloca or heap allocation call) pushes; nil elsewhere.
	defs []*rootDefs
}

// funcBase locates one defined function's values in the dense numbering.
type funcBase struct{ instrs, params int32 }

// rootDefs tabulates every definition of one memory root.
type rootDefs struct {
	// stores write the root directly: every store to a global, or the
	// function's MemDefs of an alloca.
	stores []*ir.Instr
	// aliased are the function's stores with no static root whose
	// address may point to the object or is attacker-tainted; only the
	// alias-aware modes follow them.
	aliased []*ir.Instr
	// writers are the channel sites whose destination may be the root.
	writers []inputchan.CallSite
}

// NewAnalysis scans mod and prepares the shared analysis state. It
// only reads mod, so analyses of one module may run concurrently with
// each other and with machines running it; it panics when a function is
// not numbered, since the dense numbering indexes by Instr.ID.
func NewAnalysis(mod *ir.Module) *Analysis {
	a := &Analysis{
		Mod:       mod,
		AA:        alias.Analyze(mod),
		Sites:     inputchan.Scan(mod),
		chains:    make(map[*ir.Func]*dataflow.Chains),
		graphs:    make(map[*ir.Func]*cfg.Graph),
		callersOf: make(map[*ir.Func][]*ir.Instr),
		icByCall:  make(map[*ir.Instr]inputchan.CallSite),
		globalIdx: make(map[*ir.Global]int32, len(mod.Globals)),
		funcIdx:   make(map[*ir.Func]funcBase),
	}
	for _, g := range mod.Globals {
		a.globalIdx[g] = int32(a.numValues)
		a.numValues++
	}
	// globalStores maps each global to every store writing it anywhere;
	// unresolved lists each function's stores whose address has no
	// static root.
	globalStores := make(map[*ir.Global][]*ir.Instr)
	unresolved := make(map[*ir.Func][]*ir.Instr)
	for _, f := range mod.Defined() {
		a.chains[f] = dataflow.Build(f)
		a.graphs[f] = cfg.New(f)
		base := funcBase{instrs: int32(a.numValues)}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID != a.numValues-int(base.instrs) {
					panic(fmt.Sprintf("slice: @%s is not numbered: %s has id %d", f.FName, in, in.ID))
				}
				a.numValues++
				switch in.Op {
				case ir.OpCall:
					a.callersOf[in.Callee] = append(a.callersOf[in.Callee], in)
				case ir.OpStore:
					root := dataflow.MemRoot(in.Args[1])
					if g, ok := root.(*ir.Global); ok {
						globalStores[g] = append(globalStores[g], in)
					}
					if root == nil {
						unresolved[f] = append(unresolved[f], in)
					}
				}
			}
		}
		base.params = int32(a.numValues)
		a.numValues += len(f.Params)
		a.funcIdx[f] = base
	}
	for _, s := range a.Sites {
		a.icByCall[s.Call] = s
	}
	a.Taint = a.InputChannelConstruction()
	a.tabulateRoots(globalStores, unresolved)
	return a
}

// index returns v's dense number, or -1 for a value outside the
// numbering (a constant, or anything not in the module).
func (a *Analysis) index(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		if x.Block == nil {
			return -1
		}
		if b, ok := a.funcIdx[x.Block.Parent]; ok && x.ID < int(b.params-b.instrs) {
			return b.instrs + int32(x.ID)
		}
	case *ir.Param:
		if b, ok := a.funcIdx[x.Parent]; ok {
			return b.params + int32(x.Index)
		}
	case *ir.Global:
		if i, ok := a.globalIdx[x]; ok {
			return i
		}
	}
	return -1
}

// tabulateRoots fills defs once for the module, so no decomposition
// rescans stores or channel sites. It needs Taint.
func (a *Analysis) tabulateRoots(globalStores map[*ir.Global][]*ir.Instr, unresolved map[*ir.Func][]*ir.Instr) {
	a.defs = make([]*rootDefs, a.numValues)
	for _, g := range a.Mod.Globals {
		a.defs[a.index(g)] = &rootDefs{stores: globalStores[g]}
	}
	for _, f := range a.Mod.Defined() {
		var local []*rootDefs
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAlloca || isAllocCall(in) {
					d := &rootDefs{stores: a.chains[f].MemDefs[in]}
					a.defs[a.index(in)] = d
					local = append(local, d)
				}
			}
		}
		// A tainted address may reach any object of the frame (the
		// pointer-misdirection vector of §3); otherwise a store aliases
		// exactly the function's objects its address may point to.
		for _, st := range unresolved[f] {
			if a.taintedAddress(st.Args[1], 0) {
				for _, d := range local {
					d.aliased = append(d.aliased, st)
				}
				continue
			}
			for _, obj := range a.AA.PointsTo(st.Args[1]) {
				if obj.Fn == f {
					d := a.defs[a.index(objectRoot(obj))]
					d.aliased = append(d.aliased, st)
				}
			}
		}
	}
	// A channel writes a root when one of its destination arguments is
	// rooted at it or may point to its object.
	for _, site := range a.Sites {
		for i, arg := range site.Call.Args {
			if !inputchan.WritesArg(site.Call.Callee, i) {
				continue
			}
			a.addWriter(dataflow.MemRoot(arg), site)
			for _, obj := range a.AA.PointsTo(arg) {
				a.addWriter(objectRoot(obj), site)
			}
		}
	}
}

// addWriter records site as a writer of root, once per site.
func (a *Analysis) addWriter(root ir.Value, site inputchan.CallSite) {
	i := a.index(root)
	if i < 0 || a.defs[i] == nil {
		return // a pointer parameter: not expanded as a root
	}
	d := a.defs[i]
	if n := len(d.writers); n == 0 || d.writers[n-1].Call != site.Call {
		d.writers = append(d.writers, site)
	}
}

// Graph returns the cached CFG for f.
func (a *Analysis) Graph(f *ir.Func) *cfg.Graph { return a.graphs[f] }

// Chains returns the cached def-use chains for f.
func (a *Analysis) Chains(f *ir.Func) *dataflow.Chains { return a.chains[f] }

// BranchSlice is the result of decomposing one conditional branch.
type BranchSlice struct {
	Branch *ir.Instr
	Fn     *ir.Func
	Mode   Mode

	// Instrs lists the instructions in the slice (all functions) in
	// discovery order, each once.
	Instrs []*ir.Instr
	// Roots is the branch sub-variable set restricted to memory roots
	// (allocas, globals, pointer params) — the instrumentable variables.
	Roots map[ir.Value]bool
	// Values lists every SSA value in the sub-variable set in discovery
	// order, each once.
	Values []ir.Value
	// ICs are the input-channel calls whose writes reach the slice.
	ICs []inputchan.CallSite
	// Terminated reports that the slicer stopped early at pointer
	// arithmetic (only in ModeDFI).
	Terminated bool
	// PointerVars counts pointer-typed members of the sub-variable set
	// (the Fig. 7a metric).
	PointerVars int
}

// ContainsIC reports whether the slice covers the given channel call.
func (s *BranchSlice) ContainsIC(call *ir.Instr) bool {
	for _, c := range s.ICs {
		if c.Call == call {
			return true
		}
	}
	return false
}

// Distance is the attack distance (Def. 2.4): the static instruction
// span between the start of the protected slice and the branch.
func (s *BranchSlice) Distance() int {
	minID := s.Branch.ID
	span := 0
	perFunc := make(map[*ir.Func][2]int) // min, max IDs of foreign spans
	for _, in := range s.Instrs {
		if in.Block == nil {
			continue
		}
		f := in.Block.Parent
		if f == s.Fn {
			if in.ID < minID {
				minID = in.ID
			}
			continue
		}
		mm, ok := perFunc[f]
		if !ok {
			mm = [2]int{in.ID, in.ID}
		} else {
			if in.ID < mm[0] {
				mm[0] = in.ID
			}
			if in.ID > mm[1] {
				mm[1] = in.ID
			}
		}
		perFunc[f] = mm
	}
	span = s.Branch.ID - minID
	for _, mm := range perFunc {
		span += mm[1] - mm[0] + 1
	}
	return span
}

// task is one worklist entry: a value to decompose at a given
// interprocedural depth.
type task struct {
	v     ir.Value
	idx   int32 // v's dense index, or -1
	depth int
}

// Mark bits of one value during a walk: bit d records a push at depth
// d, and inSlice records that the instruction joined Instrs.
const (
	depthBits = 1<<(GroundDepth+1) - 1
	inSlice   = 1 << 7
)

// Depths 0..GroundDepth take GroundDepth+1 bits, which must fit below
// inSlice; a negative difference fails to compile.
const _ uint = 7 - (GroundDepth + 1)

// walker holds the scratch state of branch decomposition. A walker
// serves one goroutine; reusing it across branches makes resetting
// cost only as much as the previous slice.
type walker struct {
	a       *Analysis
	marks   []uint8            // by dense index
	touched []int32            // indexes with a non-zero mark
	other   map[ir.Value]uint8 // marks of values without a dense index
	work    []task
	icSeen  map[*ir.Instr]bool
	// values and instrs collect the slice's Values and Instrs; each
	// slice gets an exact-size copy.
	values []ir.Value
	instrs []*ir.Instr

	s        *BranchSlice
	maxDepth int
}

func (a *Analysis) newWalker() *walker {
	return &walker{a: a, marks: make([]uint8, a.numValues), icSeen: make(map[*ir.Instr]bool)}
}

// BranchDecomposition computes the branch sub-variable set of br
// (Algorithm 1 of the paper) under the given mode.
func (a *Analysis) BranchDecomposition(br *ir.Instr, mode Mode) *BranchSlice {
	return a.newWalker().decompose(br, mode)
}

// decompose computes br's slice, first clearing what the walker's
// previous slice marked.
func (w *walker) decompose(br *ir.Instr, mode Mode) *BranchSlice {
	for _, i := range w.touched {
		w.marks[i] = 0
	}
	w.touched, w.values, w.instrs = w.touched[:0], w.values[:0], w.instrs[:0]
	clear(w.other)
	clear(w.icSeen)
	s := &BranchSlice{Branch: br, Fn: br.Block.Parent, Mode: mode, Roots: make(map[ir.Value]bool)}
	w.s, w.maxDepth = s, maxDepthFor(mode)
	w.push(br.Args[0], 0)
	for len(w.work) > 0 {
		t := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		if ir.IsPtr(t.v.Type()) {
			s.PointerVars++
		}
		switch v := t.v.(type) {
		case *ir.Param:
			s.Roots[v] = true
			// Interprocedural: extend into callers' argument values.
			if t.depth < w.maxDepth {
				for _, call := range w.a.callersOf[v.Parent] {
					if v.Index < len(call.Args) {
						w.join(call)
						w.push(call.Args[v.Index], t.depth+1)
					}
				}
			}
		case *ir.Global:
			s.Roots[v] = true
			w.expandRoot(t)
		case *ir.Instr:
			w.expandInstr(v, t)
		}
	}
	s.Values = slices.Clone(w.values)
	s.Instrs = slices.Clone(w.instrs)
	return s
}

// mark ORs bits into the mark of v (dense index idx) and returns the
// previous mark.
func (w *walker) mark(v ir.Value, idx int32, bits uint8) uint8 {
	if idx < 0 {
		if w.other == nil {
			w.other = make(map[ir.Value]uint8)
		}
		old := w.other[v]
		w.other[v] = old | bits
		return old
	}
	old := w.marks[idx]
	if old == 0 {
		w.touched = append(w.touched, idx)
	}
	w.marks[idx] = old | bits
	return old
}

// push queues v at depth once; its first push adds it to Values.
func (w *walker) push(v ir.Value, depth int) {
	if v == nil || depth > w.maxDepth {
		return
	}
	if _, isConst := v.(*ir.Const); isConst {
		return
	}
	idx := w.a.index(v)
	bit := uint8(1) << depth
	old := w.mark(v, idx, bit)
	if old&bit != 0 {
		return
	}
	if old&depthBits == 0 {
		w.values = append(w.values, v)
	}
	w.work = append(w.work, task{v, idx, depth})
}

// join adds in to Instrs once.
func (w *walker) join(in *ir.Instr) {
	if w.mark(in, w.a.index(in), inSlice)&inSlice == 0 {
		w.instrs = append(w.instrs, in)
	}
}

// addIC adds a channel site to ICs once.
func (w *walker) addIC(site inputchan.CallSite) {
	if !w.icSeen[site.Call] {
		w.icSeen[site.Call] = true
		w.s.ICs = append(w.s.ICs, site)
	}
}

// expandInstr adds one defining instruction to the slice and pushes the
// values it depends on.
func (w *walker) expandInstr(in *ir.Instr, t task) {
	s, depth := w.s, t.depth
	w.join(in)
	switch in.Op {
	case ir.OpAlloca:
		s.Roots[in] = true
		w.expandRoot(t)

	case ir.OpLoad:
		addr := in.Args[0]
		if s.Mode == ModeDFI && isPointerArith(addr) {
			// DFI cannot reason about the address — the slice ends here.
			s.Terminated = true
			return
		}
		root := dataflow.MemRoot(addr)
		if root != nil {
			w.push(root, depth)
		} else if s.Mode != ModeDFI {
			// Computed address: use alias sets to find the objects this
			// load may read, then follow their definitions.
			for _, obj := range w.a.AA.PointsTo(addr) {
				if r := objectRoot(obj); r != nil {
					w.push(r, depth)
				}
			}
		} else {
			s.Terminated = true
		}
		w.push(addr, depth) // the address computation is part of the slice

	case ir.OpStore:
		// A store reached via a root expansion: the stored value and the
		// address computation both join the slice.
		w.push(in.Args[0], depth)
		w.push(in.Args[1], depth)

	case ir.OpCall:
		if isAllocCall(in) {
			// A heap allocation site is itself a branch sub-variable
			// root: the object's contents feed the predicate.
			s.Roots[in] = true
			w.expandRoot(t)
			return
		}
		if site, ok := w.a.icByCall[in]; ok {
			w.addIC(site)
			// The channel's own operands (source buffer etc.) are
			// attacker-reachable; include them.
			for _, arg := range in.Args {
				w.push(arg, depth)
			}
			return
		}
		if in.Callee.IsDecl() {
			for _, arg := range in.Args {
				w.push(arg, depth)
			}
			return
		}
		// Defined callee: the returned value's slice continues inside.
		if s.Mode == ModeDFI {
			return // DFI does not cross calls
		}
		if depth < w.maxDepth {
			for _, b := range in.Callee.Blocks {
				for _, ci := range b.Instrs {
					if ci.Op == ir.OpRet && len(ci.Args) == 1 {
						w.join(ci)
						w.push(ci.Args[0], depth+1)
					}
				}
			}
		}
		for _, arg := range in.Args {
			w.push(arg, depth)
		}

	case ir.OpGEP:
		if s.Mode == ModeDFI && isPointerArith(in) {
			s.Terminated = true
			return
		}
		for _, arg := range in.Args {
			w.push(arg, depth)
		}

	case ir.OpPhi:
		for _, e := range in.Incoming {
			w.push(e.Val, depth)
		}

	case ir.OpIntToPtr, ir.OpPtrToInt:
		if s.Mode == ModeDFI {
			s.Terminated = true
			return
		}
		w.push(in.Args[0], depth)

	default:
		for _, arg := range in.Args {
			w.push(arg, depth)
		}
	}
}

// expandRoot pushes every definition of the memory root t.v, from the
// table NewAnalysis built: its direct stores, stores through
// may-aliasing or tainted pointers (ModeFull/Ground), and input-channel
// calls that write it.
func (w *walker) expandRoot(t task) {
	if t.idx < 0 {
		return
	}
	d := w.a.defs[t.idx]
	for _, st := range d.stores {
		w.join(st)
		w.push(st.Args[0], t.depth)
		w.push(st.Args[1], t.depth)
	}
	if w.s.Mode != ModeDFI {
		for _, st := range d.aliased {
			w.join(st)
			w.push(st.Args[0], t.depth)
			w.push(st.Args[1], t.depth)
		}
	}
	for _, site := range d.writers {
		w.addIC(site)
		w.join(site.Call)
	}
}

func maxDepthFor(m Mode) int {
	switch m {
	case ModeDFI:
		return 0
	case ModeGround:
		return GroundDepth
	default:
		return PythiaDepth
	}
}

// isPointerArith reports whether the address value involves arithmetic
// DFI cannot model: a GEP with any non-constant index, a GEP into struct
// fields (field sensitivity), or integer/pointer casts.
func isPointerArith(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	switch in.Op {
	case ir.OpIntToPtr, ir.OpPtrToInt:
		return true
	case ir.OpGEP:
		base := in.Args[0]
		if pt, ok := base.Type().(*ir.PtrType); ok {
			if _, isStruct := pt.Elem.(*ir.StructType); isStruct {
				return true // field-sensitive case
			}
		}
		for _, idx := range in.Args[1:] {
			if _, isConst := idx.(*ir.Const); !isConst {
				return true
			}
		}
		// Constant-index GEPs chain: check the base too.
		return isPointerArith(base)
	}
	return false
}

// isAllocCall reports whether in allocates heap memory.
func isAllocCall(in *ir.Instr) bool {
	if in.Op != ir.OpCall || in.Callee == nil {
		return false
	}
	switch in.Callee.FName {
	case "malloc", "calloc", "secure_malloc", "mmap":
		return true
	}
	return false
}

// taintedAddress reports whether the address computation v involves an
// input-channel-tainted value (bounded walk).
func (a *Analysis) taintedAddress(v ir.Value, depth int) bool {
	if depth > 6 || a.Taint == nil {
		return false
	}
	if a.Taint.Values[v] || a.Taint.Roots[v] {
		return true
	}
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	if in.Op == ir.OpLoad {
		if root := dataflow.MemRoot(in.Args[0]); root != nil && a.Taint.Roots[root] {
			return true
		}
	}
	for _, arg := range in.Args {
		if a.taintedAddress(arg, depth+1) {
			return true
		}
	}
	for _, e := range in.Incoming {
		if a.taintedAddress(e.Val, depth+1) {
			return true
		}
	}
	return false
}

func objectRoot(o *alias.Object) ir.Value {
	switch {
	case o.Alloca != nil:
		return o.Alloca
	case o.Global != nil:
		return o.Global
	case o.Heap != nil:
		return o.Heap
	}
	return nil
}
