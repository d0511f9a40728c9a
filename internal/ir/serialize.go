package ir

// A versioned, deterministic binary codec for modules. The persistent
// artifact store (internal/artifact) keys compile and harden outputs by
// content digest and must round-trip *everything* that affects
// execution or later passes — stack plans, channel classifications,
// function attributes, instruction metadata, sealed globals, DFI
// def-sets — none of which survive the textual printer/parser pair.
//
// Format (all integers varint/uvarint, strings and byte slices
// length-prefixed):
//
//	magic "PYIR" | version | module name
//	type table:   count, kind bytes, then per-type payloads
//	globals:      name, elem type, init, str, sealed
//	functions:    signatures (incl. params, channel, attrs, counters),
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
// Encoding is deterministic — map-backed fields (attrs, metadata) are
// emitted in sorted key order — so equal modules produce equal bytes
// and the content digest of an encoding is a sound cache key.

import (
	"encoding/binary"
	"fmt"
	"sort"
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
	e := &encoder{}
	e.raw(serialMagic)
	e.u(SerialVersion)
	e.str(m.Name)

	// Collect every reachable type in deterministic first-visit order.
	typeIdx := make(map[Type]int)
	var types []Type
	var visitType func(t Type) int
	visitType = func(t Type) int {
		if t == nil {
			panic("ir: encode: nil type")
		}
		if i, ok := typeIdx[t]; ok {
			return i
		}
		i := len(types)
		typeIdx[t] = i
		types = append(types, t)
		switch tt := t.(type) {
		case *PtrType:
			visitType(tt.Elem)
		case *ArrayType:
			visitType(tt.Elem)
		case *StructType:
			for _, f := range tt.Fields {
				visitType(f.Type)
			}
		case *FuncType:
			visitType(tt.Ret)
			for _, p := range tt.Params {
				visitType(p)
			}
		}
		return i
	}
	visitValType := func(v Value) {
		if c, ok := v.(*Const); ok {
			visitType(c.Typ)
		}
	}
	for _, g := range m.Globals {
		visitType(g.Elem)
	}
	for _, f := range m.Funcs {
		visitType(f.Sig)
		for _, p := range f.Params {
			visitType(p.Typ)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				visitType(in.Typ)
				if in.AllocTy != nil {
					visitType(in.AllocTy)
				}
				for _, a := range in.Args {
					visitValType(a)
				}
				for _, edge := range in.Incoming {
					visitValType(edge.Val)
				}
			}
		}
	}

	e.u(uint64(len(types)))
	for _, t := range types {
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
	for _, t := range types {
		switch tt := t.(type) {
		case *VoidType:
		case *IntType:
			e.u(uint64(tt.Bits))
		case *PtrType:
			e.u(uint64(typeIdx[tt.Elem]))
		case *ArrayType:
			e.u(uint64(typeIdx[tt.Elem]))
			e.i(tt.Len)
		case *StructType:
			e.str(tt.Name)
			e.u(uint64(len(tt.Fields)))
			for _, f := range tt.Fields {
				e.str(f.Name)
				e.u(uint64(typeIdx[f.Type]))
			}
		case *FuncType:
			e.u(uint64(typeIdx[tt.Ret]))
			e.u(uint64(len(tt.Params)))
			for _, p := range tt.Params {
				e.u(uint64(typeIdx[p]))
			}
			e.bool(tt.Variadic)
		}
	}

	globalIdx := make(map[*Global]int, len(m.Globals))
	e.u(uint64(len(m.Globals)))
	for i, g := range m.Globals {
		globalIdx[g] = i
		e.str(g.GName)
		e.u(uint64(typeIdx[g.Elem]))
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
		e.u(uint64(typeIdx[f.Sig]))
		e.i(int64(f.Channel))
		e.u(uint64(len(f.Params)))
		for _, p := range f.Params {
			e.str(p.PName)
			e.u(uint64(typeIdx[p.Typ]))
		}
		e.sortedMap(f.Attrs)
		e.u(uint64(f.nextName))
		e.u(uint64(f.nextBlk))
	}

	var flat []*Instr // the function's instructions by ID, reused
	for _, f := range m.Funcs {
		blockIdx := make(map[*Block]int, len(f.Blocks))
		flat = flat[:0]
		for bi, b := range f.Blocks {
			blockIdx[b] = bi
			for _, in := range b.Instrs {
				if in.ID != len(flat) {
					return nil, fmt.Errorf("ir: encode: @%s is not numbered: instruction %d has id %d", f.FName, len(flat), in.ID)
				}
				flat = append(flat, in)
			}
		}
		// local reports whether t is one of f's instructions, so its ID
		// is its reference.
		local := func(t *Instr) bool { return t.ID >= 0 && t.ID < len(flat) && flat[t.ID] == t }
		valRef := func(v Value) error {
			switch t := v.(type) {
			case *Const:
				e.b(vtConst)
				e.u(uint64(typeIdx[t.Typ]))
				e.i(t.Val)
			case *Global:
				e.b(vtGlobal)
				e.u(uint64(globalIdx[t]))
			case *Param:
				if t.Parent != f {
					return fmt.Errorf("ir: encode: @%s references foreign param %%%s", f.FName, t.PName)
				}
				e.b(vtParam)
				e.u(uint64(t.Index))
			case *Instr:
				if !local(t) {
					return fmt.Errorf("ir: encode: @%s references foreign instr %v", f.FName, t)
				}
				e.b(vtInstr)
				e.u(uint64(t.ID))
			default:
				return fmt.Errorf("ir: encode: unsupported value %T", v)
			}
			return nil
		}

		e.u(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.str(b.Name)
			e.u(uint64(len(b.Instrs)))
			for _, in := range b.Instrs {
				e.i(int64(in.Op))
				e.str(in.Nam)
				e.u(uint64(typeIdx[in.Typ]))
				e.u(uint64(len(in.Args)))
				for _, a := range in.Args {
					if err := valRef(a); err != nil {
						return nil, err
					}
				}
				if in.AllocTy != nil {
					e.bool(true)
					e.u(uint64(typeIdx[in.AllocTy]))
				} else {
					e.bool(false)
				}
				e.i(int64(in.Pred))
				e.u(uint64(len(in.Succs)))
				for _, s := range in.Succs {
					e.u(uint64(blockIdx[s]))
				}
				if in.Callee != nil {
					e.bool(true)
					e.u(uint64(funcIdx[in.Callee]))
				} else {
					e.bool(false)
				}
				e.u(uint64(len(in.Incoming)))
				for _, edge := range in.Incoming {
					if err := valRef(edge.Val); err != nil {
						return nil, err
					}
					e.u(uint64(blockIdx[edge.Pred]))
				}
				e.i(int64(in.DefID))
				e.u(uint64(len(in.Allowed)))
				for _, a := range in.Allowed {
					e.i(int64(a))
				}
				e.sortedMap(in.Meta)
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
					if !local(s.Alloca) {
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
func DecodeModule(data []byte) (mod *Module, err error) {
	defer func() {
		// Belt and braces: index arithmetic on corrupt input is turned
		// into an error rather than taking the process down.
		if r := recover(); r != nil {
			mod, err = nil, fmt.Errorf("ir: decode: malformed module: %v", r)
		}
	}()
	d := &decoder{buf: data}
	if string(d.raw(len(serialMagic))) != string(serialMagic) {
		return nil, fmt.Errorf("ir: decode: bad magic")
	}
	if v := d.u(); v != SerialVersion {
		return nil, fmt.Errorf("ir: decode: version %d, want %d", v, SerialVersion)
	}
	m := NewModule(d.str())

	d.types = make([]Type, d.count())
	for i := range d.types {
		switch k := d.b(); k {
		case tkVoid:
			d.types[i] = Void // the one void every builder uses
		case tkInt:
			d.types[i] = &IntType{}
		case tkPtr:
			d.types[i] = &PtrType{}
		case tkArray:
			d.types[i] = &ArrayType{}
		case tkStruct:
			d.types[i] = &StructType{}
		case tkFunc:
			d.types[i] = &FuncType{}
		default:
			return nil, fmt.Errorf("ir: decode: unknown type kind %d", k)
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

	d.globals = make([]*Global, d.count())
	for i := range d.globals {
		d.globals[i] = &Global{GName: d.str(), Elem: d.typ(), Init: d.bytes(), Str: d.str(), Sealed: d.bool()}
	}
	m.Globals = d.globals

	d.funcs = make([]*Func, d.count())
	for i := range d.funcs {
		f := &Func{FName: d.str(), Parent: m}
		sig, ok := d.typ().(*FuncType)
		if !ok {
			return nil, fmt.Errorf("ir: decode: @%s signature is not a func type", f.FName)
		}
		f.Sig = sig
		f.Channel = ChannelKind(d.i())
		f.Params = make([]*Param, d.count())
		for pi := range f.Params {
			f.Params[pi] = &Param{PName: d.str(), Typ: d.typ(), Index: pi, Parent: f}
		}
		f.Attrs = d.sortedMap()
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
		f.Blocks = make([]*Block, d.count())
		for bi := range f.Blocks {
			f.Blocks[bi] = &Block{Parent: f}
		}
		n := 0 // instructions read so far
		for _, b := range f.Blocks {
			b.Name = d.str()
			for ni := d.count(); ni > 0; ni-- {
				in := d.instr(uint64(n))
				in.Op, in.Nam, in.Typ, in.Block = Op(d.i()), d.str(), d.typ(), b
				in.Args = make([]Value, d.count())
				for ai := range in.Args {
					in.Args[ai] = d.value()
				}
				if d.bool() {
					in.AllocTy = d.typ()
				}
				in.Pred = Pred(d.i())
				if ns := d.count(); ns > 0 {
					in.Succs = make([]*Block, ns)
					for si := range in.Succs {
						in.Succs[si] = f.Blocks[d.u()]
					}
				}
				// A callee index past int64 decodes as no callee.
				if d.bool() {
					if ci := int64(d.u()); ci >= 0 {
						in.Callee = d.funcs[ci]
					}
				}
				in.Incoming = make([]PhiEdge, d.count())
				for ei := range in.Incoming {
					in.Incoming[ei] = PhiEdge{Val: d.value(), Pred: f.Blocks[d.u()]}
				}
				in.DefID = int(d.i())
				for na := d.count(); na > 0; na-- {
					in.Allowed = append(in.Allowed, int(d.i()))
				}
				in.Meta = d.sortedMap()
				if id := d.i(); d.err == nil && id != int64(n) {
					return nil, fmt.Errorf("ir: decode: @%s instruction %d stores id %d", f.FName, n, id)
				}
				b.Instrs = append(b.Instrs, in)
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

// encoder is an append-only buffer with typed put helpers.
type encoder struct{ buf []byte }

func (e *encoder) raw(p []byte) { e.buf = append(e.buf, p...) }
func (e *encoder) b(v byte)     { e.buf = append(e.buf, v) }
func (e *encoder) u(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) str(s string) { e.u(uint64(len(s))); e.raw([]byte(s)) }
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

// sortedMap emits a string map in sorted key order (deterministic).
func (e *encoder) sortedMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(m[k])
	}
}

// decoder reads the encoder's output, latching the first error, and
// resolves each reference as it reads it: to the type table, the
// globals, the functions, and the instructions of the function whose
// body it is reading.
type decoder struct {
	buf []byte
	off int
	err error

	types   []Type
	globals []*Global
	funcs   []*Func
	f       *Func    // the function whose body is being read
	instrs  []*Instr // f's instructions by ID, shells of later ones included
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ir: decode: "+format, args...)
	}
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
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
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail("implausible count %d with %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string { return string(d.raw(int(d.u()))) }

func (d *decoder) bytes() []byte {
	p := d.raw(int(d.u()))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (d *decoder) bool() bool { return d.b() != 0 }

func (d *decoder) sortedMap() map[string]string {
	n := d.count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = d.str()
	}
	return m
}

// typ reads a type-table index. An index out of range panics, which
// DecodeModule recovers as an error, as it does for a global, param,
// block or callee index.
func (d *decoder) typ() Type { return d.types[d.u()] }

// value reads one value reference and resolves it.
func (d *decoder) value() Value {
	switch tag := d.b(); tag {
	case vtConst:
		return &Const{Typ: d.typ(), Val: d.i()}
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
// position, so an instruction not read yet gets its shell here and is
// filled in when the decoder reaches it; DecodeModule refuses a function
// whose references end past its last instruction. Each instruction
// still to read takes at least one byte, which bounds the shells.
func (d *decoder) instr(id uint64) *Instr {
	if id >= uint64(len(d.instrs)) {
		if id-uint64(len(d.instrs)) > uint64(len(d.buf)-d.off) {
			d.fail("@%s references instruction %d past its end", d.f.FName, id)
			return nil
		}
		d.instrs = append(d.instrs, make([]*Instr, id+1-uint64(len(d.instrs)))...)
	}
	if d.instrs[id] == nil {
		d.instrs[id] = &Instr{ID: int(id)}
	}
	return d.instrs[id]
}
