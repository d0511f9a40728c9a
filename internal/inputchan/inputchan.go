// Package inputchan classifies input-channel functions (Definition 2.1
// of the paper: "any function that is vulnerable to memory corruption")
// into the six categories of §2.6 — print, scan, move/copy, get, put,
// map — and provides the standard-library declarations the front-end and
// workload generator link against.
//
// The scanner also detects user-implemented channel wrappers (the paper
// notes nginx's "ngx_"-prefixed variants): a defined function that
// forwards a pointer parameter into a known channel is itself classified
// as a channel of the same kind.
package inputchan

import (
	"repro/internal/ir"
)

// libc maps well-known function names to their channel classification
// and signature. Signatures use i8* for buffers and i64 for counts.
var libc = []struct {
	name     string
	kind     ir.ChannelKind
	ret      ir.Type
	params   []ir.Type
	variadic bool
}{
	{"printf", ir.KindPrint, ir.I64, []ir.Type{ir.I8Ptr}, true},
	{"sprintf", ir.KindPrint, ir.I64, []ir.Type{ir.I8Ptr, ir.I8Ptr}, true},
	{"puts", ir.KindPrint, ir.I64, []ir.Type{ir.I8Ptr}, false},
	{"scanf", ir.KindScan, ir.I64, []ir.Type{ir.I8Ptr}, true},
	{"memcpy", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr, ir.I64}, false},
	{"memmove", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr, ir.I64}, false},
	{"memset", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I64, ir.I64}, false},
	{"strncpy", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr, ir.I64}, false},
	{"sstrncpy", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr, ir.I64}, false},
	{"gets", ir.KindGet, ir.I8Ptr, []ir.Type{ir.I8Ptr}, false},
	{"fgets", ir.KindGet, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I64}, false},
	{"read", ir.KindGet, ir.I64, []ir.Type{ir.I64, ir.I8Ptr, ir.I64}, false},
	{"strcpy", ir.KindPut, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr}, false},
	{"strcat", ir.KindPut, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr}, false},
	{"mmap", ir.KindMap, ir.I8Ptr, []ir.Type{ir.I64}, false},
	{"snprintf", ir.KindPrint, ir.I64, []ir.Type{ir.I8Ptr, ir.I64, ir.I8Ptr}, true},
	{"strdup", ir.KindMoveCopy, ir.I8Ptr, []ir.Type{ir.I8Ptr}, false},

	// Non-channel helpers the programs call.
	{"malloc", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I64}, false},
	{"calloc", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I64, ir.I64}, false},
	{"secure_malloc", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I64}, false},
	{"free", ir.KindNone, ir.Void, []ir.Type{ir.I8Ptr}, false},
	{"realloc", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I64}, false},
	{"strchr", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I64}, false},
	{"strstr", ir.KindNone, ir.I8Ptr, []ir.Type{ir.I8Ptr, ir.I8Ptr}, false},
	{"strlen", ir.KindNone, ir.I64, []ir.Type{ir.I8Ptr}, false},
	{"strcmp", ir.KindNone, ir.I64, []ir.Type{ir.I8Ptr, ir.I8Ptr}, false},
	{"strncmp", ir.KindNone, ir.I64, []ir.Type{ir.I8Ptr, ir.I8Ptr, ir.I64}, false},
	{"atoi", ir.KindNone, ir.I64, []ir.Type{ir.I8Ptr}, false},
	{"abs", ir.KindNone, ir.I64, []ir.Type{ir.I64}, false},
	{"rand", ir.KindNone, ir.I64, nil, false},
	{"exit", ir.KindNone, ir.Void, []ir.Type{ir.I64}, false},
}

// Declare registers the standard declarations in mod (idempotent) and
// returns the map from name to function.
func Declare(mod *ir.Module) map[string]*ir.Func {
	out := make(map[string]*ir.Func, len(libc))
	for _, d := range libc {
		f := mod.Func(d.name)
		if f == nil {
			names := make([]string, len(d.params))
			for i := range names {
				names[i] = "a" + string(rune('0'+i))
			}
			f = mod.NewFunc(d.name, d.ret, names, d.params)
			f.Sig.Variadic = d.variadic
			f.Channel = d.kind
		}
		out[d.name] = f
	}
	return out
}

// KindOf returns the classification for a libc name, or KindNone.
func KindOf(name string) ir.ChannelKind {
	for _, d := range libc {
		if d.name == name {
			return d.kind
		}
	}
	return ir.KindNone
}

// CallSite is one static input-channel call.
type CallSite struct {
	Caller *ir.Func
	Call   *ir.Instr
	Kind   ir.ChannelKind
}

// Scan classifies user-defined wrapper channels and returns every static
// input-channel call site in the module. A defined function becomes a
// channel when it passes one of its pointer parameters as the
// *destination* argument of a known channel (argument 0 for the write
// channels; every pointer vararg for scanf).
func Scan(mod *ir.Module) []CallSite {
	// Fixpoint: wrappers of wrappers are channels too.
	changed := true
	for changed {
		changed = false
		for _, f := range mod.Defined() {
			if f.Channel.IsChannel() {
				continue
			}
			if k := wrapperKind(f); k.IsChannel() {
				f.Channel = k
				changed = true
			}
		}
	}
	var sites []CallSite
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if k := in.Callee.Channel; k.IsChannel() {
					sites = append(sites, CallSite{Caller: f, Call: in, Kind: k})
				}
			}
		}
	}
	return sites
}

// wrapperKind reports the channel kind f inherits by forwarding a
// pointer parameter into a channel's destination. It works both before
// and after mem2reg: the front-end spills parameters to shadow slots, so
// a load from a slot whose only store is the parameter spill counts as
// the parameter.
func wrapperKind(f *ir.Func) ir.ChannelKind {
	params := make(map[ir.Value]bool)
	for _, p := range f.Params {
		if ir.IsPtr(p.Typ) {
			params[p] = true
		}
	}
	if len(params) == 0 {
		return ir.KindNone
	}
	// Shadow slots: allocas with exactly one store, storing a parameter.
	shadow := make(map[ir.Value]bool) // alloca -> is a param spill slot
	storeCount := make(map[ir.Value]int)
	storesParam := make(map[ir.Value]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if a, ok := in.Args[1].(*ir.Instr); ok && a.Op == ir.OpAlloca {
				storeCount[a]++
				if params[in.Args[0]] {
					storesParam[a] = true
				}
			}
		}
	}
	for a, n := range storeCount {
		if n == 1 && storesParam[a] {
			shadow[a] = true
		}
	}
	isParamValue := func(v ir.Value) bool {
		if params[v] {
			return true
		}
		if ld, ok := v.(*ir.Instr); ok && ld.Op == ir.OpLoad && shadow[ld.Args[0]] {
			return true
		}
		return false
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall || !in.Callee.Channel.IsChannel() {
				continue
			}
			for i, a := range in.Args {
				if isParamValue(a) && isDestArg(in.Callee, i) {
					return in.Callee.Channel
				}
			}
		}
	}
	return ir.KindNone
}

// isDestArg reports whether argument i of the channel is written through.
func isDestArg(callee *ir.Func, i int) bool {
	switch callee.FName {
	case "scanf":
		return i >= 1
	case "read":
		return i == 1
	case "printf", "puts":
		return false // print channels read; they classify but cannot corrupt
	default:
		return i == 0
	}
}

// WritesArg reports whether argument i of a call to the channel callee
// is a destination the call writes through: scanf's pointer varargs,
// read's buffer, and argument 0 of every other channel that is not a
// print channel. The slicer, the hardening passes and the DFI baseline
// all resolve writes with it. Wrapper discovery uses isDestArg instead,
// which has no print-channel case and so also counts the buffers of
// sprintf and snprintf as destinations; the Fig. 5b channel counts
// depend on that.
func WritesArg(callee *ir.Func, i int) bool {
	switch callee.FName {
	case "scanf":
		return i >= 1
	case "read":
		return i == 1
	case "printf", "puts":
		return false
	default:
		return callee.Channel != ir.KindPrint && i == 0
	}
}

// Distribution counts call sites per kind — the Fig. 5(b) data.
type Distribution struct {
	Total  int
	ByKind map[ir.ChannelKind]int
}

// Distribute tallies sites by category.
func Distribute(sites []CallSite) Distribution {
	d := Distribution{Total: len(sites), ByKind: make(map[ir.ChannelKind]int)}
	for _, s := range sites {
		d.ByKind[s.Kind]++
	}
	return d
}

// Percent returns the share of kind k, in percent.
func (d Distribution) Percent(k ir.ChannelKind) float64 {
	if d.Total == 0 {
		return 0
	}
	return 100 * float64(d.ByKind[k]) / float64(d.Total)
}
