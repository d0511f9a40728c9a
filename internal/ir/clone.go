package ir

// Deep module cloning. The hardening passes mutate modules in place
// (inserting instructions, widening alloca/global types, installing
// stack plans), so hardening a module that must also stay unchanged
// needs a full structural copy. The staged pipeline in internal/core
// does not use Clone: each harden decodes its own module from the
// compile stage's bytes. The perfbench replay and tests do.
//
// Types and constants are immutable after construction (passes build
// fresh Type values instead of editing them), so clones share them;
// everything that carries identity or mutable state — globals, funcs,
// params, blocks, instructions, plans, attribute maps — is copied, and
// every internal reference is remapped onto the copies.

// Clone returns a deep copy of the module. The copy shares no mutable
// state with the original: hardening one clone never affects another.
func (m *Module) Clone() *Module {
	out := NewModule(m.Name)

	globalMap := make(map[*Global]*Global, len(m.Globals))
	for _, g := range m.Globals {
		ng := &Global{
			GName:  g.GName,
			Elem:   g.Elem,
			Init:   append([]byte(nil), g.Init...),
			Str:    g.Str,
			Sealed: g.Sealed,
		}
		out.Globals = append(out.Globals, ng)
		globalMap[g] = ng
	}

	funcMap := make(map[*Func]*Func, len(m.Funcs))
	paramMap := make(map[*Param]*Param)
	instrMap := make(map[*Instr]*Instr)
	blockMap := make(map[*Block]*Block)

	// Pass 1: create every func, param, block, and instruction shell so
	// pass 2 can remap references in any order (phis and branches refer
	// to blocks and values defined later).
	for _, f := range m.Funcs {
		nf := &Func{
			FName:    f.FName,
			Sig:      f.Sig,
			Channel:  f.Channel,
			Parent:   out,
			nextName: f.nextName,
			nextBlk:  f.nextBlk,
		}
		if f.Attrs != nil {
			nf.Attrs = make(map[string]string, len(f.Attrs))
			for k, v := range f.Attrs {
				nf.Attrs[k] = v
			}
		}
		for _, p := range f.Params {
			np := &Param{PName: p.PName, Typ: p.Typ, Index: p.Index, Parent: nf}
			nf.Params = append(nf.Params, np)
			paramMap[p] = np
		}
		for _, b := range f.Blocks {
			nb := &Block{Name: b.Name, Parent: nf}
			nf.Blocks = append(nf.Blocks, nb)
			blockMap[b] = nb
			for _, in := range b.Instrs {
				ni := in.Clone() // copies scalars, detaches slices/maps
				ni.Block = nb
				nb.Instrs = append(nb.Instrs, ni)
				instrMap[in] = ni
			}
		}
		out.Funcs = append(out.Funcs, nf)
		out.funcIndex[nf.FName] = nf
		funcMap[f] = nf
	}

	remapVal := func(v Value) Value {
		switch t := v.(type) {
		case *Global:
			return globalMap[t]
		case *Param:
			return paramMap[t]
		case *Instr:
			return instrMap[t]
		}
		return v // constants are immutable and shared
	}

	// Pass 2: remap every cross-reference onto the copies.
	for _, f := range m.Funcs {
		nf := funcMap[f]
		if f.Plan != nil {
			np := &StackPlan{Size: f.Plan.Size, Slots: make([]StackSlot, len(f.Plan.Slots))}
			copy(np.Slots, f.Plan.Slots)
			for i := range np.Slots {
				if np.Slots[i].Alloca != nil {
					np.Slots[i].Alloca = instrMap[np.Slots[i].Alloca]
				}
			}
			nf.Plan = np
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				ni := instrMap[in]
				for i, a := range ni.Args {
					ni.Args[i] = remapVal(a)
				}
				for i, s := range ni.Succs {
					ni.Succs[i] = blockMap[s]
				}
				for i := range ni.Incoming {
					ni.Incoming[i].Val = remapVal(ni.Incoming[i].Val)
					ni.Incoming[i].Pred = blockMap[ni.Incoming[i].Pred]
				}
				if ni.Callee != nil {
					ni.Callee = funcMap[ni.Callee]
				}
			}
		}
	}
	return out
}
