package ir

import "fmt"

// Deep module cloning. The hardening passes mutate modules in place
// (inserting instructions, widening alloca/global types, installing
// stack plans), so hardening a module that must also stay unchanged
// needs a full structural copy. Clone is DecodeModule∘EncodeModule: the
// codec already rebuilds every global, function, block, instruction and
// plan, with each reference pointing into the copy, so there is one way
// to rebuild a module. Only tests and perfbench's traced replay call
// it; the staged pipeline in internal/core decodes each harden's module
// from the compile stage's bytes instead.

// Clone returns a deep copy of the module. The copy shares no mutable
// state with the original: hardening one clone never affects another.
// It panics when m cannot be encoded, which no built module hits: every
// stage that builds IR leaves it numbered.
func (m *Module) Clone() *Module {
	enc, err := EncodeModule(m)
	var out *Module
	if err == nil {
		out, err = DecodeModule(enc)
	}
	if err != nil {
		panic(fmt.Sprintf("ir: clone %s: %v", m.Name, err))
	}
	return out
}
