// Package ir defines a small SSA-form intermediate representation in the
// spirit of LLVM IR: modules contain functions, functions contain basic
// blocks, and blocks contain instructions. Memory is explicit (alloca /
// load / store / gep) until the mem2reg pass promotes non-address-taken
// stack slots to SSA registers, which mirrors the pipeline the Pythia
// paper instruments ("LLVM's mem2reg ... intrinsics for the remaining
// loads, stores, and alloca instructions").
package ir

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all IR types.
type Type interface {
	// String returns the textual form of the type (e.g. "i64", "i8*").
	String() string
	// Size returns the size of a value of this type in bytes.
	Size() int64
	// Equal reports whether two types are structurally identical.
	Equal(Type) bool
}

// IntType is an integer type of a fixed bit width (i8, i32, i64, ...).
type IntType struct {
	Bits int
}

// Common pre-built types. Pointers in the simulated machine are 64-bit.
var (
	I1    = &IntType{Bits: 1}
	I8    = &IntType{Bits: 8}
	I32   = &IntType{Bits: 32}
	I64   = &IntType{Bits: 64}
	Void  = &VoidType{}
	I8Ptr = PointerTo(I8)
)

func (t *IntType) String() string { return fmt.Sprintf("i%d", t.Bits) }

// Size rounds sub-byte types up to one byte; i1 occupies a byte in memory.
func (t *IntType) Size() int64 {
	if t.Bits <= 8 {
		return 1
	}
	return int64(t.Bits / 8)
}

func (t *IntType) Equal(o Type) bool {
	ot, ok := o.(*IntType)
	return ok && ot.Bits == t.Bits
}

// PtrType is a typed pointer. All pointers are 8 bytes in the simulated
// 64-bit address space; the PAC field occupies the upper bits (see
// package pa).
type PtrType struct {
	Elem Type
}

// PointerTo returns the pointer type to elem.
func PointerTo(elem Type) *PtrType { return &PtrType{Elem: elem} }

func (t *PtrType) String() string { return t.Elem.String() + "*" }
func (t *PtrType) Size() int64    { return 8 }

func (t *PtrType) Equal(o Type) bool {
	ot, ok := o.(*PtrType)
	return ok && ot.Elem.Equal(t.Elem)
}

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	Len  int64
}

// ArrayOf returns the array type [n x elem].
func ArrayOf(elem Type, n int64) *ArrayType { return &ArrayType{Elem: elem, Len: n} }

func (t *ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
}
func (t *ArrayType) Size() int64 { return t.Len * t.Elem.Size() }

func (t *ArrayType) Equal(o Type) bool {
	ot, ok := o.(*ArrayType)
	return ok && ot.Len == t.Len && ot.Elem.Equal(t.Elem)
}

// StructField is one named member of a StructType.
type StructField struct {
	Name string
	Type Type
}

// StructType is a record type with named, ordered fields. Layout is
// packed field-by-field with no padding beyond natural sizes: the
// simulated machine permits unaligned scalar access, so padding would
// only obscure the overflow-containment experiments.
type StructType struct {
	Name   string
	Fields []StructField
}

func (t *StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.Type.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (t *StructType) Size() int64 {
	var n int64
	for _, f := range t.Fields {
		n += f.Type.Size()
	}
	return n
}

// Offset returns the byte offset of field index i.
func (t *StructType) Offset(i int) int64 {
	var n int64
	for j := 0; j < i; j++ {
		n += t.Fields[j].Type.Size()
	}
	return n
}

// FieldIndex returns the index of the field with the given name, or -1.
func (t *StructType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Equal compares named structs nominally (self-referential types such
// as linked-list nodes would recurse forever structurally) and anonymous
// structs structurally.
func (t *StructType) Equal(o Type) bool {
	ot, ok := o.(*StructType)
	if !ok {
		return false
	}
	if t == ot {
		return true
	}
	if t.Name != "" || ot.Name != "" {
		return t.Name == ot.Name && len(t.Fields) == len(ot.Fields)
	}
	if len(ot.Fields) != len(t.Fields) {
		return false
	}
	for i := range t.Fields {
		if !t.Fields[i].Type.Equal(ot.Fields[i].Type) {
			return false
		}
	}
	return true
}

// VoidType is the type of functions that return nothing.
type VoidType struct{}

func (*VoidType) String() string    { return "void" }
func (*VoidType) Size() int64       { return 0 }
func (*VoidType) Equal(o Type) bool { _, ok := o.(*VoidType); return ok }

// FuncType describes a function signature.
type FuncType struct {
	Params   []Type
	Ret      Type
	Variadic bool
}

func (t *FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	if t.Variadic {
		parts = append(parts, "...")
	}
	return fmt.Sprintf("%s (%s)", t.Ret, strings.Join(parts, ", "))
}
func (t *FuncType) Size() int64 { return 8 }

func (t *FuncType) Equal(o Type) bool {
	ot, ok := o.(*FuncType)
	if !ok || len(ot.Params) != len(t.Params) || ot.Variadic != t.Variadic || !ot.Ret.Equal(t.Ret) {
		return false
	}
	for i := range t.Params {
		if !t.Params[i].Equal(ot.Params[i]) {
			return false
		}
	}
	return true
}

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(*IntType); return ok }

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool { _, ok := t.(*PtrType); return ok }

// IsAggregate reports whether t is an array or struct type.
func IsAggregate(t Type) bool {
	switch t.(type) {
	case *ArrayType, *StructType:
		return true
	}
	return false
}

// Elem returns the pointee of a pointer type, or nil if t is not a pointer.
func Elem(t Type) Type {
	if pt, ok := t.(*PtrType); ok {
		return pt.Elem
	}
	return nil
}
