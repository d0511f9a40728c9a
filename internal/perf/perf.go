// Package perf models the performance of the simulated machine: dynamic
// instruction counts, a calibrated cycle model for a wide out-of-order
// core (the paper evaluates on an Apple M1 Pro), a set-associative
// last-level cache for miss statistics, and binary-size accounting.
//
// The paper's results are ratios (instrumented vs. vanilla); this model
// produces deterministic cycle counts whose ratios reproduce those
// shapes. Absolute time is out of scope.
package perf

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Model holds the cost parameters. Defaults approximate an M1-class
// core at 3.2 GHz. A hardening "instruction" in the IR stands for the
// short machine sequence the backend emits (compute PAC, load/compare,
// conditional trap, possible spill), so each charges several retired
// instructions plus a small serialization stall — this is what keeps the
// measured IPC degradation small (Fig. 5a) even when cycle overhead is
// large: the instrumented binary mostly retires *more* instructions at
// nearly the same rate.
type Model struct {
	RetireWidth    float64 // instructions retired per cycle at best
	LoadExtra      float64 // pipelined L1 hit cost beyond issue
	LLCMissPenalty float64 // cycles per LLC miss
	BranchPenalty  float64 // average misprediction cost per branch
	CallOverhead   float64 // prologue/epilogue + link cost

	PAExpand      float64 // retired instructions per PA sequence
	PACExtra      float64 // serialized stall beyond the sequence's issue cost
	CanaryExpand  float64 // instructions in a canary refresh (incl. RNG call)
	CanaryRNGCost float64 // extra cycles for the RNG library call (§5)
	DFISetExpand  float64 // instructions per SETDEF
	DFIChkExpand  float64 // instructions per CHKDEF
	DFIExtra      float64 // table-access stall per DFI op

	SecureMallocNS  float64 // extra latency of heap sectioning, ns (§6.1: ~23 ns)
	HeapSectionInit float64 // one-time sectioning setup, ns (§6.2: ~126 ns)
	ClockGHz        float64
}

// DefaultModel returns the calibrated cost set used by all experiments.
func DefaultModel() *Model {
	return &Model{
		RetireWidth:    4.0,
		LoadExtra:      0.25,
		LLCMissPenalty: 90,
		BranchPenalty:  0.55,
		CallOverhead:   2.0,

		PAExpand:      6,
		PACExtra:      0.6,
		CanaryExpand:  60,
		CanaryRNGCost: 14,
		DFISetExpand:  3,
		DFIChkExpand:  6,
		DFIExtra:      0.9,

		SecureMallocNS:  23,
		HeapSectionInit: 126,
		ClockGHz:        3.2,
	}
}

// NSToCycles converts nanoseconds to cycles under the model clock.
func (m *Model) NSToCycles(ns float64) float64 { return ns * m.ClockGHz }

// Counters accumulates one run's dynamic statistics.
type Counters struct {
	Instrs      int64 // all retired instructions
	PAInstrs    int64 // dynamic pac.sign/pac.auth/pac.strip
	CanaryOps   int64
	DFIOps      int64
	Loads       int64
	Stores      int64
	Branches    int64
	Calls       int64
	LLCAccesses int64
	LLCMisses   int64
	Cycles      float64

	// BookkeepCycles is the slice of Cycles charged to runtime
	// bookkeeping that belongs to no IR instruction site: sectioned-
	// allocator latency and the one-time heap-section init. The
	// attribution engine reports it as the "meta" category.
	BookkeepCycles float64
}

// IPC returns retired instructions per cycle.
func (c *Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / c.Cycles
}

// Meter charges instruction costs against a Counters under a Model.
type Meter struct {
	M     *Model
	Cache *Cache

	// c holds the counters OnLoad, OnStore and the bookkeeping charges
	// write directly, and Cycles, which OnInstr adds to per retired
	// instruction in retirement order (float addition is not
	// associative, and modeled cycles are compared exactly). The
	// per-instruction integer counters are folded from ops when read;
	// see Counters. It is a separate allocation so that a caller
	// keeping the counters does not keep the meter and its cache.
	c *Counters

	// ops is the per-opcode table OnInstr dispatches through: one entry
	// per ir.Op holding the precomputed cost of retiring it and how many
	// this meter retired. The entries reproduce the historical switch
	// exactly, including its float-addition order (cyc2 is a *separate*
	// addition, matching the old two-step condbr charge), so cycle
	// counts stay bit-identical.
	ops []opEntry
}

// opEntry is one opcode's row: the effect of retiring one instruction
// of the opcode (counter increments plus one or two cycle additions),
// and the number retired.
type opEntry struct {
	instrs   int64
	pa       int64
	canary   int64
	dfi      int64
	branches int64
	calls    int64
	cyc      float64
	cyc2     float64 // added separately when twoStep (condbr penalty)
	twoStep  bool
	retired  int64
}

// NewMeter returns a meter with a fresh cache and counters.
func NewMeter(m *Model) *Meter {
	return &Meter{M: m, c: &Counters{}, Cache: NewCache(512, 8, 64), ops: buildOps(m)}
}

// buildOps precomputes the OnInstr cost entry for every opcode.
func buildOps(m *Model) []opEntry {
	ops := make([]opEntry, ir.NumOps())
	for i := range ops {
		op := ir.Op(i)
		e := &ops[i]
		switch {
		case op == ir.OpCanarySet:
			// Canary refresh = RNG library call + pacga + store (§5:
			// "populated with C++ random number generator with a library
			// call at each invocation").
			e.canary, e.pa = 1, 1
			e.instrs = int64(m.CanaryExpand)
			e.cyc = m.CanaryExpand/m.RetireWidth + m.CanaryRNGCost
		case op == ir.OpCanaryCheck:
			e.canary, e.pa = 1, 1
			e.instrs = int64(m.PAExpand)
			e.cyc = m.PAExpand/m.RetireWidth + m.PACExtra
		case op.IsPA():
			e.pa = 1
			e.instrs = int64(m.PAExpand)
			e.cyc = m.PAExpand/m.RetireWidth + m.PACExtra
		case op == ir.OpSetDef:
			e.dfi = 1
			e.instrs = int64(m.DFISetExpand)
			e.cyc = m.DFISetExpand/m.RetireWidth + m.DFIExtra
		case op == ir.OpChkDef:
			e.dfi = 1
			e.instrs = int64(m.DFIChkExpand)
			e.cyc = m.DFIChkExpand/m.RetireWidth + m.DFIExtra
		case op == ir.OpCondBr:
			e.instrs, e.branches = 1, 1
			e.cyc = 1 / m.RetireWidth
			e.cyc2, e.twoStep = m.BranchPenalty, true
		case op == ir.OpBr:
			e.instrs, e.branches = 1, 1
			e.cyc = 1 / m.RetireWidth
		case op == ir.OpCall:
			e.instrs, e.calls = 1, 1
			e.cyc = 1/m.RetireWidth + m.CallOverhead
		default:
			e.instrs = 1
			e.cyc = 1 / m.RetireWidth
		}
	}
	return ops
}

// OnInstr charges one retired instruction (or, for hardening ops, the
// machine sequence it expands to) of the given opcode. Opcodes outside
// the table charge the default entry, ir.OpInvalid's, which is also
// the charge of one plain instruction.
func (t *Meter) OnInstr(op ir.Op) {
	if uint(op) >= uint(len(t.ops)) {
		op = ir.OpInvalid
	}
	e := &t.ops[op]
	e.retired++
	t.c.Cycles += e.cyc
	if e.twoStep {
		t.c.Cycles += e.cyc2
	}
}

// Counters returns the meter's counters with the per-opcode retire
// counts folded into Instrs, PAInstrs, CanaryOps, DFIOps, Branches and
// Calls. The result is the meter's own struct, refreshed on every call,
// so read it again after charging more.
func (t *Meter) Counters() *Counters {
	c := t.c
	c.Instrs, c.PAInstrs, c.CanaryOps, c.DFIOps, c.Branches, c.Calls = 0, 0, 0, 0, 0, 0
	for i := range t.ops {
		e := &t.ops[i]
		n := e.retired
		c.Instrs += n * e.instrs
		c.PAInstrs += n * e.pa
		c.CanaryOps += n * e.canary
		c.DFIOps += n * e.dfi
		c.Branches += n * e.branches
		c.Calls += n * e.calls
	}
	return c
}

// Cycles returns the modeled cycles charged so far, without folding
// the other counters.
func (t *Meter) Cycles() float64 { return t.c.Cycles }

// OnLoad charges a memory read at addr.
func (t *Meter) OnLoad(addr uint64) {
	t.c.Loads++
	t.c.LLCAccesses++
	t.c.Cycles += t.M.LoadExtra
	if !t.Cache.Access(addr) {
		t.c.LLCMisses++
		t.c.Cycles += t.M.LLCMissPenalty
	}
}

// OnStore charges a memory write at addr.
func (t *Meter) OnStore(addr uint64) {
	t.c.Stores++
	t.c.LLCAccesses++
	if !t.Cache.Access(addr) {
		t.c.LLCMisses++
		t.c.Cycles += t.M.LLCMissPenalty / 2 // store misses partially hidden
	}
}

// OnSecureMalloc charges the extra sectioned-allocation latency.
func (t *Meter) OnSecureMalloc() {
	c := t.M.NSToCycles(t.M.SecureMallocNS)
	t.c.Cycles += c
	t.c.BookkeepCycles += c
}

// OnHeapSectionInit charges the one-time arena sectioning setup that even
// benchmarks with no vulnerable heap variables pay (§6.2, lbm/mcf).
func (t *Meter) OnHeapSectionInit() {
	c := t.M.NSToCycles(t.M.HeapSectionInit)
	t.c.Cycles += c
	t.c.BookkeepCycles += c
}

// Cache is a set-associative write-allocate cache with LRU replacement,
// used only to produce miss statistics for the evaluation discussion.
// Its sets*ways entries sit in one flat array, set by set.
type Cache struct {
	ways     int
	lineBits uint   // log2 of the line size
	setBits  uint   // log2 of the set count
	setMask  uint64 // set count - 1
	lines    []cacheLine
	clock    int64
}

// cacheLine is one way of one set. tag holds the line's tag plus one,
// so the zero value is an empty way no address matches; age is the
// clock of its last access, 0 while empty.
type cacheLine struct {
	tag uint64
	age int64
}

// NewCache returns a cache with the given geometry; lineSize is in bytes.
// sets must be a power of two, so the set index is a mask of the line
// number and the tag a shift; any other count panics.
func NewCache(sets, ways, lineSize int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("perf: cache set count %d is not a power of two", sets))
	}
	c := &Cache{ways: ways, setMask: uint64(sets - 1), lines: make([]cacheLine, sets*ways)}
	for 1<<c.lineBits < lineSize {
		c.lineBits++
	}
	for 1<<c.setBits < sets {
		c.setBits++
	}
	return c
}

// Access touches addr and reports whether it hit. On a miss the victim
// is the first way with the smallest age: an empty way, else the least
// recently used.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	tag := line>>c.setBits + 1
	first := int(line&c.setMask) * c.ways
	set := c.lines[first : first+c.ways]
	oldest, oldestAge := 0, c.clock+1
	for w := range set {
		if set[w].tag == tag {
			set[w].age = c.clock
			return true
		}
		if set[w].age < oldestAge {
			oldestAge = set[w].age
			oldest = w
		}
	}
	set[oldest] = cacheLine{tag: tag, age: c.clock}
	return false
}

// BinarySize estimates the code size of a module in bytes: 4 bytes per
// static machine instruction (fixed-width AArch64 encoding) plus a
// 16-byte prologue per defined function, with hardening IR ops weighted
// by the machine sequences they expand to. This is the Fig. 4(b) metric.
func BinarySize(m *ir.Module) int64 {
	var n int64
	for _, f := range m.Defined() {
		n += 16
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				n += 4 * instrWeight(in.Op)
			}
		}
	}
	return n
}

func instrWeight(op ir.Op) int64 {
	switch {
	case op == ir.OpCanarySet:
		return 5
	case op == ir.OpCanaryCheck:
		return 3
	case op.IsPA():
		return 3
	case op == ir.OpSetDef:
		return 2
	case op == ir.OpChkDef:
		return 3
	}
	return 1
}

// Overhead returns (instrumented/base - 1) as a percentage. A
// non-positive or non-finite base makes the ratio meaningless — the
// old behavior silently returned 0%, which let a broken baseline
// masquerade as "no overhead" — so it is reported as an error instead.
func Overhead(base, instrumented float64) (float64, error) {
	if base <= 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return 0, fmt.Errorf("perf: overhead undefined for baseline %v cycles", base)
	}
	if math.IsNaN(instrumented) || math.IsInf(instrumented, 0) {
		return 0, fmt.Errorf("perf: overhead undefined for instrumented %v cycles", instrumented)
	}
	return (instrumented/base - 1) * 100, nil
}
