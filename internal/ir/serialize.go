package ir

// A versioned, deterministic binary codec for modules. The persistent
// artifact store (internal/artifact) keys compile and harden outputs by
// content digest and must round-trip *everything* that affects
// execution or later passes — stack plans, channel classifications,
// sealed and canary slots, check-site ids, sealed globals, DFI def ids
// and def-sets — none of which survive the textual printer/parser pair.
//
// Format (all integers varint/uvarint, strings and byte slices
// length-prefixed):
//
//	magic "PYIR" | version | module name
//	type table:   count, kind bytes, then per-type payloads
//	globals:      name, elem type, init, str, sealed
//	functions:    signatures (incl. params, channel, 0 attrs, counters),
//	              then bodies (blocks, instructions, stack plan)
//
// Types form an arbitrary graph (self-referential structs via pointer
// fields), so the table is decoded in two passes: allocate one shell
// per kind byte, then fill payloads, letting any payload reference any
// index. Instructions are decoded in one pass: a function's blocks are
// created from their stored count before its first instruction, and
// every operand, successor, callee, phi edge and stack-plan slot is
// resolved as it is read. An instruction's ID is its block-order
// position, so a reference to a later instruction takes that
// instruction's shell early; one past the function's last instruction
// is an error.
//
// An instruction's annotations are key/value pairs in key order:
// "canary" and "sealed" with value "1", and "site" with the check-site
// id. The decoder refuses any other pair, and any function attribute.
//
// Encoding is deterministic, so equal modules produce equal bytes and
// the content digest of an encoding is a sound cache key.

import (
	"encoding/binary"
	"fmt"
)

// SerialVersion is the codec version. Bump it whenever the encoding
// changes shape; the artifact store folds it into both the entry header
// and the cache key, so stale on-disk entries miss cleanly instead of
// decoding garbage.
const SerialVersion = 1

var serialMagic = []byte("PYIR")

// type table kind bytes.
const (
	tkVoid = iota
	tkInt
	tkPtr
	tkArray
	tkStruct
	tkFunc
)

// value reference tags.
const (
	vtConst = iota
	vtGlobal
	vtParam
	vtInstr
)

// EncodeModule serializes m to its canonical binary form.
func EncodeModule(m *Module) ([]byte, error) {
	e := &encoder{typeIdx: make(map[Type]int)}

	// Collect every reachable type in deterministic first-visit order,
	// recording the index of each instruction's type references as it is
	// visited (see encoder.tix). Tally the encoding's size on the way, so
	// the output is allocated once: the tally counts each field's usual
	// width, and runs 2-10% over the encodings of the decoder's seeds.
	size := 64
	for _, g := range m.Globals {
		e.visitType(g.Elem)
		size += 8 + len(g.GName) + len(g.Init) + len(g.Str)
	}
	for _, f := range m.Funcs {
		e.visitType(f.Sig)
		size += 16 + len(f.FName)
		for _, p := range f.Params {
			e.visitType(p.Typ)
			size += 2 + len(p.PName)
		}
		for _, b := range f.Blocks {
			size += 2 + len(b.Name)
			for _, in := range b.Instrs {
				e.tix = append(e.tix, e.visitType(in.Typ))
				if in.AllocTy != nil {
					e.tix = append(e.tix, e.visitType(in.AllocTy))
				}
				for _, a := range in.Args {
					e.visitConst(a)
				}
				for _, edge := range in.Incoming {
					e.visitConst(edge.Val)
				}
				size += 16 + len(in.Nam) + 3*len(in.Args) + len(in.Succs) + 4*len(in.Incoming) + 2*len(in.Allowed) + len(in.Site)
			}
		}
		if f.Plan != nil {
			size += 4 + 8*len(f.Plan.Slots)
		}
	}
	e.buf = make([]byte, 0, size)
	e.raw(serialMagic)
	e.u(SerialVersion)
	e.str(m.Name)

	e.u(uint64(len(e.types)))
	for _, t := range e.types {
		switch t.(type) {
		case *VoidType:
			e.b(tkVoid)
		case *IntType:
			e.b(tkInt)
		case *PtrType:
			e.b(tkPtr)
		case *ArrayType:
			e.b(tkArray)
		case *StructType:
			e.b(tkStruct)
		case *FuncType:
			e.b(tkFunc)
		default:
			return nil, fmt.Errorf("ir: encode: unknown type %T", t)
		}
	}
	for _, t := range e.types {
		switch tt := t.(type) {
		case *VoidType:
		case *IntType:
			e.u(uint64(tt.Bits))
		case *PtrType:
			e.typ(tt.Elem)
		case *ArrayType:
			e.typ(tt.Elem)
			e.i(tt.Len)
		case *StructType:
			e.str(tt.Name)
			e.u(uint64(len(tt.Fields)))
			for _, f := range tt.Fields {
				e.str(f.Name)
				e.typ(f.Type)
			}
		case *FuncType:
			e.typ(tt.Ret)
			e.u(uint64(len(tt.Params)))
			for _, p := range tt.Params {
				e.typ(p)
			}
			e.bool(tt.Variadic)
		}
	}

	e.globalIdx = make(map[*Global]int, len(m.Globals))
	e.u(uint64(len(m.Globals)))
	for i, g := range m.Globals {
		e.globalIdx[g] = i
		e.str(g.GName)
		e.typ(g.Elem)
		e.bytes(g.Init)
		e.str(g.Str)
		e.bool(g.Sealed)
	}

	funcIdx := make(map[*Func]int, len(m.Funcs))
	for i, f := range m.Funcs {
		funcIdx[f] = i
	}
	e.u(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.str(f.FName)
		e.typ(f.Sig)
		e.i(int64(f.Channel))
		e.u(uint64(len(f.Params)))
		for _, p := range f.Params {
			e.str(p.PName)
			e.typ(p.Typ)
		}
		e.u(0) // attributes
		e.u(uint64(f.nextName))
		e.u(uint64(f.nextBlk))
	}

	blockIdx := make(map[*Block]int)
	for _, f := range m.Funcs {
		clear(blockIdx)
		e.f, e.flat = f, e.flat[:0]
		for bi, b := range f.Blocks {
			blockIdx[b] = bi
			for _, in := range b.Instrs {
				if in.ID != len(e.flat) {
					return nil, fmt.Errorf("ir: encode: @%s is not numbered: instruction %d has id %d", f.FName, len(e.flat), in.ID)
				}
				e.flat = append(e.flat, in)
			}
		}

		e.u(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.str(b.Name)
			e.u(uint64(len(b.Instrs)))
			for _, in := range b.Instrs {
				e.i(int64(in.Op))
				e.str(in.Nam)
				e.u(e.nextTix())
				allocTy := -1
				if in.AllocTy != nil {
					allocTy = int(e.nextTix())
				}
				e.u(uint64(len(in.Args)))
				for _, a := range in.Args {
					if err := e.value(a); err != nil {
						return nil, err
					}
				}
				e.bool(allocTy >= 0)
				if allocTy >= 0 {
					e.u(uint64(allocTy))
				}
				e.i(int64(in.Pred))
				e.u(uint64(len(in.Succs)))
				for _, s := range in.Succs {
					e.u(uint64(blockIdx[s]))
				}
				e.bool(in.Callee != nil)
				if in.Callee != nil {
					e.u(uint64(funcIdx[in.Callee]))
				}
				e.u(uint64(len(in.Incoming)))
				for _, edge := range in.Incoming {
					if err := e.value(edge.Val); err != nil {
						return nil, err
					}
					e.u(uint64(blockIdx[edge.Pred]))
				}
				e.i(int64(in.DefID))
				e.u(uint64(len(in.Allowed)))
				for _, a := range in.Allowed {
					e.i(int64(a))
				}
				e.annotations(in)
				e.i(int64(in.ID))
			}
		}

		if f.Plan == nil {
			e.bool(false)
		} else {
			e.bool(true)
			e.i(f.Plan.Size)
			e.u(uint64(len(f.Plan.Slots)))
			for _, s := range f.Plan.Slots {
				if s.Alloca != nil {
					if !e.local(s.Alloca) {
						return nil, fmt.Errorf("ir: encode: @%s plan references foreign alloca", f.FName)
					}
					e.i(int64(s.Alloca.ID))
				} else {
					e.i(-1)
				}
				e.i(s.Offset)
				e.i(s.Size)
				e.bool(s.Canary)
				e.bool(s.Vuln)
				e.bool(s.Sealed)
			}
		}
	}
	return e.buf, nil
}

// DecodeModule rebuilds a module from EncodeModule's output. Malformed
// or truncated input yields an error, never a panic: the artifact store
// treats a failed decode as a cache miss and recompiles. So does a
// stored instruction id that is not the instruction's block-order
// position, so every decoded module is numbered.
//
// Decoding allocates per function, not per instruction: instructions,
// constant operands and every per-instruction slice are carved from the
// decoder's slabs, and every decoded string is a substring of one copy
// of data.
func DecodeModule(data []byte) (mod *Module, err error) {
	defer func() {
		// Belt and braces: index arithmetic on corrupt input is turned
		// into an error rather than taking the process down.
		if r := recover(); r != nil {
			mod, err = nil, fmt.Errorf("ir: decode: malformed module: %v", r)
		}
	}()
	d := &decoder{buf: data, s: string(data)}
	if string(d.raw(len(serialMagic))) != string(serialMagic) {
		return nil, fmt.Errorf("ir: decode: bad magic")
	}
	if v := d.u(); v != SerialVersion {
		return nil, fmt.Errorf("ir: decode: version %d, want %d", v, SerialVersion)
	}
	m := NewModule(d.str())

	// One shell per kind byte, each kind's shells from one slice.
	kinds := d.raw(d.count())
	var perKind [tkFunc + 1]int
	for _, k := range kinds {
		if k > tkFunc {
			return nil, fmt.Errorf("ir: decode: unknown type kind %d", k)
		}
		perKind[k]++
	}
	ints, ptrs, arrays := make([]IntType, perKind[tkInt]), make([]PtrType, perKind[tkPtr]), make([]ArrayType, perKind[tkArray])
	structs, funcs := make([]StructType, perKind[tkStruct]), make([]FuncType, perKind[tkFunc])
	d.types = make([]Type, len(kinds))
	for i, k := range kinds {
		switch k {
		case tkVoid:
			d.types[i] = Void // the one void every builder uses
		case tkInt:
			d.types[i], ints = &ints[0], ints[1:]
		case tkPtr:
			d.types[i], ptrs = &ptrs[0], ptrs[1:]
		case tkArray:
			d.types[i], arrays = &arrays[0], arrays[1:]
		case tkStruct:
			d.types[i], structs = &structs[0], structs[1:]
		case tkFunc:
			d.types[i], funcs = &funcs[0], funcs[1:]
		}
	}
	for _, t := range d.types {
		switch tt := t.(type) {
		case *VoidType:
		case *IntType:
			tt.Bits = int(d.u())
		case *PtrType:
			tt.Elem = d.typ()
		case *ArrayType:
			tt.Elem = d.typ()
			tt.Len = d.i()
		case *StructType:
			tt.Name = d.str()
			tt.Fields = make([]StructField, d.count())
			for i := range tt.Fields {
				tt.Fields[i].Name = d.str()
				tt.Fields[i].Type = d.typ()
			}
		case *FuncType:
			tt.Ret = d.typ()
			tt.Params = make([]Type, d.count())
			for i := range tt.Params {
				tt.Params[i] = d.typ()
			}
			tt.Variadic = d.bool()
		}
	}

	globals := make([]Global, d.count())
	d.globals = make([]*Global, len(globals))
	for i := range globals {
		globals[i] = Global{GName: d.str(), Elem: d.typ(), Init: d.bytes(), Str: d.str(), Sealed: d.bool()}
		d.globals[i] = &globals[i]
	}
	m.Globals = d.globals

	fns := make([]Func, d.count())
	d.funcs = make([]*Func, len(fns))
	for i := range fns {
		f := &fns[i]
		f.FName, f.Parent = d.str(), m
		sig, ok := d.typ().(*FuncType)
		if !ok {
			return nil, fmt.Errorf("ir: decode: @%s signature is not a func type", f.FName)
		}
		f.Sig = sig
		f.Channel = ChannelKind(d.i())
		params := make([]Param, d.count())
		f.Params = make([]*Param, len(params))
		for pi := range params {
			params[pi] = Param{PName: d.str(), Typ: d.typ(), Index: pi, Parent: f}
			f.Params[pi] = &params[pi]
		}
		if n := d.u(); n != 0 {
			d.fail("@%s has %d attributes", f.FName, n)
		}
		f.nextName = int(d.u())
		f.nextBlk = int(d.u())
		d.funcs[i] = f
		m.funcIndex[f.FName] = f
	}
	m.Funcs = d.funcs
	if d.err != nil {
		return nil, d.err
	}

	for _, f := range d.funcs {
		d.f, d.instrs = f, d.instrs[:0]
		blocks := make([]Block, d.count())
		f.Blocks = make([]*Block, len(blocks))
		for bi := range blocks {
			blocks[bi].Parent = f
			f.Blocks[bi] = &blocks[bi]
		}
		n := 0 // instructions read so far
		for _, b := range f.Blocks {
			b.Name = d.str()
			b.Instrs = d.code.take(d.count(), d.left())
			for k := range b.Instrs {
				in := d.instr(uint64(n))
				in.Op, in.Nam, in.Typ, in.Block = Op(d.i()), d.str(), d.typ(), b
				in.Args = d.vals.take(d.count(), d.left())
				for ai := range in.Args {
					in.Args[ai] = d.value()
				}
				if d.bool() {
					in.AllocTy = d.typ()
				}
				in.Pred = Pred(d.i())
				in.Succs = d.succs.take(d.count(), d.left())
				for si := range in.Succs {
					in.Succs[si] = f.Blocks[d.u()]
				}
				// A callee index past int64 decodes as no callee.
				if d.bool() {
					if ci := int64(d.u()); ci >= 0 {
						in.Callee = d.funcs[ci]
					}
				}
				in.Incoming = d.edges.take(d.count(), d.left())
				for ei := range in.Incoming {
					in.Incoming[ei] = PhiEdge{Val: d.value(), Pred: f.Blocks[d.u()]}
				}
				in.DefID = int(d.i())
				in.Allowed = d.ints.take(d.count(), d.left())
				for ai := range in.Allowed {
					in.Allowed[ai] = int(d.i())
				}
				d.annotations(in)
				if id := d.i(); d.err == nil && id != int64(n) {
					return nil, fmt.Errorf("ir: decode: @%s instruction %d stores id %d", f.FName, n, id)
				}
				b.Instrs[k] = in
				n++
			}
		}
		if d.err == nil && len(d.instrs) > n {
			return nil, fmt.Errorf("ir: decode: @%s references instruction %d past its end (it has %d)", f.FName, len(d.instrs)-1, n)
		}
		if d.bool() {
			plan := &StackPlan{Size: d.i()}
			plan.Slots = make([]StackSlot, d.count())
			for i := range plan.Slots {
				s := &plan.Slots[i]
				if ai := d.i(); ai >= 0 {
					s.Alloca = d.instrs[ai]
				}
				s.Offset = d.i()
				s.Size = d.i()
				s.Canary = d.bool()
				s.Vuln = d.bool()
				s.Sealed = d.bool()
			}
			f.Plan = plan
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("ir: decode: %d trailing bytes", len(d.buf)-d.off)
	}
	return m, nil
}

// encoder is an append-only buffer with typed put helpers, and the
// indices EncodeModule writes references by.
type encoder struct {
	buf []byte

	typeIdx map[Type]int
	types   []Type // by index, in first-visit order
	// tix holds the index of every instruction's type references, in
	// the order the first pass visits them: the result type, the alloca
	// type, then the types of the constants among the operands and the
	// phi edges. The body writer consumes it in that order, so each
	// reference costs one map lookup.
	tix  []int
	next int // the next entry of tix to write

	globalIdx map[*Global]int
	f         *Func    // the function whose body is being written
	flat      []*Instr // f's instructions by ID
}

// visitType numbers t and every type it reaches that has no index yet,
// and returns t's index.
func (e *encoder) visitType(t Type) int {
	if t == nil {
		panic("ir: encode: nil type")
	}
	if i, ok := e.typeIdx[t]; ok {
		return i
	}
	i := len(e.types)
	e.typeIdx[t] = i
	e.types = append(e.types, t)
	switch tt := t.(type) {
	case *PtrType:
		e.visitType(tt.Elem)
	case *ArrayType:
		e.visitType(tt.Elem)
	case *StructType:
		for _, f := range tt.Fields {
			e.visitType(f.Type)
		}
	case *FuncType:
		e.visitType(tt.Ret)
		for _, p := range tt.Params {
			e.visitType(p)
		}
	}
	return i
}

// visitConst records the type of v when v is a constant.
func (e *encoder) visitConst(v Value) {
	if c, ok := v.(*Const); ok {
		e.tix = append(e.tix, e.visitType(c.Typ))
	}
}

// nextTix returns the next recorded type reference.
func (e *encoder) nextTix() uint64 {
	i := e.tix[e.next]
	e.next++
	return uint64(i)
}

// typ writes the index of a type outside the function bodies.
func (e *encoder) typ(t Type) { e.u(uint64(e.typeIdx[t])) }

// local reports whether t is one of e.f's instructions, so its ID is
// its reference.
func (e *encoder) local(t *Instr) bool {
	return t.ID >= 0 && t.ID < len(e.flat) && e.flat[t.ID] == t
}

// value writes one value reference of e.f's body.
func (e *encoder) value(v Value) error {
	switch t := v.(type) {
	case *Const:
		e.b(vtConst)
		e.u(e.nextTix())
		e.i(t.Val)
	case *Global:
		e.b(vtGlobal)
		e.u(uint64(e.globalIdx[t]))
	case *Param:
		if t.Parent != e.f {
			return fmt.Errorf("ir: encode: @%s references foreign param %%%s", e.f.FName, t.PName)
		}
		e.b(vtParam)
		e.u(uint64(t.Index))
	case *Instr:
		if !e.local(t) {
			return fmt.Errorf("ir: encode: @%s references foreign instr %v", e.f.FName, t)
		}
		e.b(vtInstr)
		e.u(uint64(t.ID))
	default:
		return fmt.Errorf("ir: encode: unsupported value %T", v)
	}
	return nil
}

func (e *encoder) raw(p []byte) { e.buf = append(e.buf, p...) }
func (e *encoder) b(v byte)     { e.buf = append(e.buf, v) }
func (e *encoder) u(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) str(s string) { e.u(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) bytes(p []byte) {
	e.u(uint64(len(p)))
	e.raw(p)
}
func (e *encoder) bool(v bool) {
	if v {
		e.b(1)
	} else {
		e.b(0)
	}
}

// annotations writes in's flags and site as its annotation list.
func (e *encoder) annotations(in *Instr) {
	n := 0
	for _, set := range [...]bool{in.Canary, in.Sealed, in.Site != ""} {
		if set {
			n++
		}
	}
	e.u(uint64(n))
	if in.Canary {
		e.str("canary")
		e.str("1")
	}
	if in.Sealed {
		e.str("sealed")
		e.str("1")
	}
	if in.Site != "" {
		e.str("site")
		e.str(in.Site)
	}
}

// decoder reads the encoder's output, latching the first error, and
// resolves each reference as it reads it: to the type table, the
// globals, the functions, and the instructions of the function whose
// body it is reading.
type decoder struct {
	buf []byte
	s   string // buf as a string: every decoded string is a substring of it
	off int
	err error

	types   []Type
	globals []*Global
	funcs   []*Func
	f       *Func    // the function whose body is being read
	instrs  []*Instr // f's instructions by ID, shells of later ones included

	// The slabs the module's instructions and their parts are carved
	// from, shared by every function.
	shells slab[Instr]
	consts slab[Const]
	code   slab[*Instr] // blocks' Instrs
	vals   slab[Value]  // Args
	succs  slab[*Block]
	edges  slab[PhiEdge]
	ints   slab[int] // Allowed
}

// slab hands out slices of T carved from shared chunks, so a decode
// allocates per chunk instead of per slice. Chunks double in size from
// 32 elements to 1,024, which bounds the unused tail of the last one,
// and never outgrow what the input left to read can fill: every element
// costs at least one byte of it, so a corrupt count cannot allocate
// more than the input bounds.
type slab[T any] struct {
	free []T
	next int // the size of the next chunk, before the input bound
}

// take returns n zeroed elements, nil for none, with capacity n: a pass
// that appends to the slice reallocates instead of writing into a
// neighbour. left is the number of input bytes still to read.
func (s *slab[T]) take(n, left int) []T {
	if n <= 0 {
		return nil
	}
	if n > len(s.free) {
		s.next = min(max(2*s.next, 32), 1024)
		s.free = make([]T, max(n, min(s.next, left)))
	}
	p := s.free[:n:n]
	s.free = s.free[n:]
	return p
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ir: decode: "+format, args...)
	}
}

// left returns the number of input bytes still to read.
func (d *decoder) left() int { return len(d.buf) - d.off }

func (d *decoder) raw(n int) []byte {
	if d.err != nil || n < 0 || n > d.left() {
		d.fail("truncated (%d bytes wanted at offset %d)", n, d.off)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decoder) b() byte {
	p := d.raw(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *decoder) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and sanity-bounds it against the
// remaining input (every element costs at least one byte), so corrupt
// counts fail instead of allocating gigabytes.
func (d *decoder) count() int {
	n := d.u()
	if d.err == nil && n > uint64(d.left()) {
		d.fail("implausible count %d with %d bytes left", n, d.left())
		return 0
	}
	return int(n)
}

// str reads a string as a substring of d.s, so no string is copied.
func (d *decoder) str() string {
	n := int(d.u())
	start := d.off
	d.raw(n)
	return d.s[start:d.off]
}

func (d *decoder) bytes() []byte {
	p := d.raw(int(d.u()))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (d *decoder) bool() bool { return d.b() != 0 }

// annotations reads an instruction's annotation list onto in, refusing
// any pair the encoder does not write.
func (d *decoder) annotations(in *Instr) {
	for n := d.count(); n > 0 && d.err == nil; n-- {
		switch k, v := d.str(), d.str(); {
		case k == "canary" && v == "1":
			in.Canary = true
		case k == "sealed" && v == "1":
			in.Sealed = true
		case k == "site" && v != "":
			in.Site = v
		default:
			d.fail("@%s instruction %d has annotation %q=%q", d.f.FName, in.ID, k, v)
		}
	}
}

// typ reads a type-table index. An index out of range panics, which
// DecodeModule recovers as an error, as it does for a global, param,
// block or callee index.
func (d *decoder) typ() Type { return d.types[d.u()] }

// value reads one value reference and resolves it.
func (d *decoder) value() Value {
	switch tag := d.b(); tag {
	case vtConst:
		c := &d.consts.take(1, d.left())[0]
		c.Typ, c.Val = d.typ(), d.i()
		return c
	case vtGlobal:
		return d.globals[d.u()]
	case vtParam:
		return d.f.Params[d.u()]
	case vtInstr:
		return d.instr(d.u())
	default:
		d.fail("bad value tag %d", tag)
		return nil
	}
}

// instr returns d.f's instruction whose ID is id. An ID is a block-order
// position, so an instruction not read yet gets its shell here, with
// the shells of every instruction before it, and is filled in when the
// decoder reaches it; DecodeModule refuses a function whose references
// end past its last instruction. Each instruction still to read takes
// at least one byte, which bounds the shells.
func (d *decoder) instr(id uint64) *Instr {
	if have := uint64(len(d.instrs)); id >= have {
		if id-have > uint64(d.left()) {
			d.fail("@%s references instruction %d past its end", d.f.FName, id)
			return nil
		}
		shells := d.shells.take(int(id+1-have), d.left())
		for i := range shells {
			shells[i].ID = int(have) + i
			d.instrs = append(d.instrs, &shells[i])
		}
	}
	return d.instrs[id]
}
