package vm

// The machine profile and the observability wiring for the
// interpreter. Each executed function has one dense counter per
// instruction, indexed by pc — the instruction's ordinal in block
// order, phis included — holding {execs, cycles, faults}. Both engines
// write it from their tick: every machine counts executions at
// hardening pcs, and a fault at one, which is all SitesExecuted and
// Result.Sites need; a session that arms Sites or Metrics makes
// machines count every pc, and one that arms Sites or Attrib makes them
// also charge each cycle delta to the previous pc. Result.Sites is
// derived from the profile on every Run; the -hotsites rows and the
// vm.op.* counters at flush.
//
// Observability is strictly read-only: it inspects the meter and the IR
// but never touches memory, the RNG, or the counters, so arming it
// cannot perturb a single byte of the evaluation output.

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pa"
	"repro/internal/perf"
)

// Typed hardening-fault errors. These replace the anonymous
// fmt.Errorf values the engines used to panic with so forensics can
// recover the faulting address without parsing message strings; their
// Error() renderings are byte-identical to the old messages (the
// engine-differential tests and attack output compare those strings).

type canaryError struct {
	Addr   uint64
	Val    uint64
	forged bool
}

func (e *canaryError) Error() string {
	if e.forged {
		return fmt.Sprintf("canary at %#x replaced with validly-signed forgery", e.Addr)
	}
	return fmt.Sprintf("canary at %#x corrupted (value %#x)", e.Addr, e.Val)
}

type sealError struct {
	Addr   uint64
	Size   int
	object bool
}

func (e *sealError) Error() string {
	if e.object {
		return fmt.Sprintf("sealed object at %#x (%d bytes) corrupted", e.Addr, e.Size)
	}
	return fmt.Sprintf("sealed scalar at %#x corrupted", e.Addr)
}

type dfiError struct {
	ID   int
	Addr uint64
}

func (e *dfiError) Error() string {
	return fmt.Sprintf("dfi: def #%d not permitted at %#x", e.ID, e.Addr)
}

// faultAddress extracts the memory address a fault concerns, when the
// underlying error carries one.
func faultAddress(err error) (uint64, bool) {
	var mf *mem.Fault
	if errors.As(err, &mf) {
		return mf.Addr, true
	}
	var ae *pa.AuthError
	if errors.As(err, &ae) {
		return ae.Ptr, true
	}
	var ce *canaryError
	if errors.As(err, &ce) {
		return ce.Addr, true
	}
	var se *sealError
	if errors.As(err, &se) {
		return se.Addr, true
	}
	var de *dfiError
	if errors.As(err, &de) {
		return de.Addr, true
	}
	return 0, false
}

// pcCount is one instruction's entry in a profile.
type pcCount struct {
	execs  int64   // ticks retired at this pc
	cycles float64 // meter charge from each tick to the next (cycle charging armed)
	faults int64   // faults raised here (hardening pcs only)
}

// site is one hardening pc of a profile and its stable site id ("" in
// modules the hardening passes did not number).
type site struct {
	pc int32
	id string
}

// profile is one function's share of the machine profile, cumulative
// over the machine's runs. A pc is the instruction's ID, its ordinal in
// block order, which is fixed because no code writes a module after it
// is built.
type profile struct {
	ins   []*ir.Instr // pc -> instruction
	n     []pcCount   // pc -> counters
	sites []site      // the hardening pcs

	// flushed is n as of the last flush, so session aggregates receive
	// only what is new.
	flushed []pcCount
}

// profileOf returns f's profile, built on first use. It panics when f
// is not numbered: both engines index the profile by Instr.ID.
func (m *Machine) profileOf(f *ir.Func) *profile {
	p := m.prof[f]
	if p == nil {
		p = &profile{ins: make([]*ir.Instr, 0, f.NumInstrs())}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID != len(p.ins) {
					panic(fmt.Sprintf("vm: @%s is not numbered: instruction %d has id %d", f.FName, len(p.ins), in.ID))
				}
				if in.Op.IsHardening() {
					p.sites = append(p.sites, site{int32(in.ID), in.Site})
				}
				p.ins = append(p.ins, in)
			}
		}
		p.n = make([]pcCount, len(p.ins))
		m.prof[f] = p
	}
	return p
}

// tally fills res.SitesExecuted, the hardening pcs that ran at least
// once, and res.Sites, the profile's counters at every numbered site
// that ran or faulted, keyed by site id. The map is allocated on its
// first entry, so a run that reached no site allocates nothing.
func (m *Machine) tally(res *Result) {
	for _, p := range m.prof {
		for _, s := range p.sites {
			n := p.n[s.pc]
			if n.execs > 0 {
				res.SitesExecuted++
			}
			if s.id == "" || n.execs == 0 && n.faults == 0 {
				continue
			}
			if res.Sites == nil {
				res.Sites = make(map[string]obs.SiteCount)
			}
			c := res.Sites[s.id]
			c.Execs += n.execs
			c.Faults += n.faults
			c.Cycles += n.cycles
			res.Sites[s.id] = c
		}
	}
}

// countFault charges a fault at in to its pc when in is one of f's
// hardening instructions; the canary.set a frame-entry install
// synthesizes is not, and charges nothing.
func (m *Machine) countFault(f *ir.Func, in *ir.Instr) {
	if f == nil || in == nil || !in.Op.IsHardening() {
		return
	}
	if p := m.profileOf(f); in.ID >= 0 && in.ID < len(p.ins) && p.ins[in.ID] == in {
		p.n[in.ID].faults++
	}
}

// obsState is a machine's observability attachment; nil when disabled.
type obsState struct {
	flight *obs.Flight
	reg    *obs.Registry
	sites  *perf.SiteProf

	// all counts every pc; cycles charges each cycle delta to the
	// previous tick's pc (tick runs before the opcode's own work, so the
	// charge between two ticks belongs to the earlier one).
	all, cycles bool

	prev    *profile
	prevPC  int32
	prevCyc float64

	// decodedCalls/refCalls count engine routing decisions.
	decodedCalls, refCalls int64

	// flushed... remember what obsFlush already reported so a machine
	// that Runs more than once only publishes deltas.
	flushedInstrs  int64
	flushedPA      int64
	flushedCanary  int64
	flushedDFI     int64
	flushedLoads   int64
	flushedStores  int64
	flushedCycles  float64
	flushedDecoded int64
	flushedRef     int64
	flushedHeap    [2]heap.Stats
}

// newObsState arms observability for a machine being built:
// Config.Flight arms the flight recorder; an active session adds its
// registry and site profiler, and cycle charging for its site profiler
// or attribution. Returns nil when every feature is off.
func newObsState(cfg Config) *obsState {
	var st obsState
	if cfg.Flight > 0 {
		st.flight = obs.NewFlight(cfg.Flight)
	}
	if s := obs.Current(); s != nil {
		st.reg, st.sites = s.Metrics, s.Sites
		st.cycles = s.Sites != nil || s.Attrib != nil
	}
	st.all = st.reg != nil || st.sites != nil
	if st.flight == nil && !st.all && !st.cycles {
		return nil
	}
	armed := st // only an armed machine pays the allocation
	return &armed
}

// obsTick observes one retired instruction at pc of p (both engines
// call it from their tick under a nil guard): the flight recorder, the
// count, and the cycle charge of the previous tick.
func (m *Machine) obsTick(f *ir.Func, in *ir.Instr, p *profile, pc int32, site bool) {
	o := m.obs
	if o.flight != nil {
		o.flight.Record(f, in)
	}
	if site || o.all {
		p.n[pc].execs++
	}
	if o.cycles {
		cyc := m.Meter.Cycles()
		o.closePrev(cyc)
		o.prev, o.prevPC, o.prevCyc = p, pc, cyc
	}
}

// closePrev charges the meter delta since the previous tick to its pc.
func (o *obsState) closePrev(cyc float64) {
	if o.prev != nil {
		o.prev.n[o.prevPC].cycles += cyc - o.prevCyc
	}
}

// obsForensics builds the flight-recorder report for a fault. in is the
// faulting IR instruction when known; its stable site id (assigned by
// the hardening passes) joins the report so a detection names the exact
// check that tripped.
func (m *Machine) obsForensics(flt *Fault, in *ir.Instr) *obs.FaultReport {
	if m.obs == nil || m.obs.flight == nil {
		return nil
	}
	r := &obs.FaultReport{
		Kind:   flt.Kind.String(),
		Func:   flt.Func,
		Instr:  flt.Instr,
		Window: m.obs.flight.Window(),
	}
	if in != nil {
		r.Site = in.Site
	}
	if addr, ok := faultAddress(flt.Err); ok {
		r.SetAddr(addr, mem.SegmentName(addr))
	}
	return r
}

// publish hands the session what p counted since the last flush: one
// -hotsites row per executed pc, and the opcode histogram into ops
// (nil when metrics are off).
func (o *obsState) publish(mod, fn string, p *profile, ops []int64) {
	p.flushed = append(p.flushed, make([]pcCount, len(p.n)-len(p.flushed))...)
	for pc := range p.n {
		now, was := p.n[pc], &p.flushed[pc]
		if now.execs == was.execs {
			continue
		}
		in := p.ins[pc]
		if ops != nil {
			ops[in.Op] += now.execs - was.execs
		}
		if o.sites != nil {
			o.sites.Add(perf.SiteKey{Module: mod, Func: fn, Instr: in.String()}, now.execs-was.execs, now.cycles-was.cycles)
		}
		*was = now
	}
}

// obsFlush closes the trailing cycle charge and publishes what is new
// since the last flush: the -hotsites rows, the opcode histogram,
// engine routing, curated counter deltas, and heap arena stats.
func (m *Machine) obsFlush(res *Result) {
	o := m.obs
	c := res.Counters
	// Charge the cycles after the last tick (the final instruction's own
	// work) before anything reads the profile.
	o.closePrev(c.Cycles)
	o.prev = nil
	var ops []int64
	if o.reg != nil {
		ops = make([]int64, ir.NumOps())
	}
	if o.all {
		for f, p := range m.prof {
			o.publish(m.Mod.Name, f.FName, p, ops)
		}
	}
	if o.reg == nil {
		return
	}
	for op, n := range ops {
		if n != 0 {
			o.reg.Add("vm.op."+ir.Op(op).String(), n)
		}
	}
	o.reg.Add("vm.instrs", c.Instrs-o.flushedInstrs)
	o.reg.Add("vm.pa.ops", c.PAInstrs-o.flushedPA)
	o.reg.Add("vm.canary.ops", c.CanaryOps-o.flushedCanary)
	o.reg.Add("vm.dfi.ops", c.DFIOps-o.flushedDFI)
	o.reg.Add("vm.loads", c.Loads-o.flushedLoads)
	o.reg.Add("vm.stores", c.Stores-o.flushedStores)
	o.reg.Gauge("vm.cycles").Add(c.Cycles - o.flushedCycles)
	o.reg.Add("vm.engine.decoded_calls", o.decodedCalls-o.flushedDecoded)
	o.reg.Add("vm.engine.reference_calls", o.refCalls-o.flushedRef)
	o.flushedInstrs, o.flushedPA, o.flushedCanary = c.Instrs, c.PAInstrs, c.CanaryOps
	o.flushedDFI, o.flushedLoads, o.flushedStores = c.DFIOps, c.Loads, c.Stores
	o.flushedCycles = c.Cycles
	o.flushedDecoded, o.flushedRef = o.decodedCalls, o.refCalls

	sections := [2]struct {
		name string
		st   heap.Stats
	}{
		{"shared", m.Heap.Shared.Stats()},
		{"isolated", m.Heap.Isolated.Stats()},
	}
	for i, sec := range sections {
		prev := o.flushedHeap[i]
		o.reg.Add("heap."+sec.name+".allocs", int64(sec.st.Allocs-prev.Allocs))
		o.reg.Add("heap."+sec.name+".frees", int64(sec.st.Frees-prev.Frees))
		o.reg.Gauge("heap." + sec.name + ".bytes_in_use").Set(float64(sec.st.BytesInUse))
		o.reg.Gauge("heap." + sec.name + ".peak_in_use").Max(float64(sec.st.PeakInUse))
		o.flushedHeap[i] = sec.st
	}
}
