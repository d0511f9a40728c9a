// Package vm interprets the IR on the simulated machine: a 64-bit sparse
// address space (package mem), a sectioned heap (package heap), ARM-PA
// (package pa), and a performance meter (package perf).
//
// The VM is where attacks and defenses actually meet: input-channel
// intrinsics read attacker-controllable bytes, overflows corrupt real
// simulated memory, and the hardening instructions (pac.*, canary.*,
// dfi.*) fault exactly when the corresponding mechanism would trap on
// hardware.
//
// Execution uses a pre-decoded engine (decode.go, engine.go): each
// function is lowered once per machine into a flat instruction stream
// with dense value slots, so the hot loop dispatches over arrays instead
// of walking the IR with per-value map lookups. The original
// tree-walking interpreter survives in reference.go behind
// Config.Reference as the differential-testing oracle; both paths
// produce byte-identical results.
package vm

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pa"
	"repro/internal/perf"
)

// DefaultFuel bounds the number of interpreted instructions per run.
const DefaultFuel = int64(200_000_000)

// Machine is one loaded program instance.
type Machine struct {
	Mod   *ir.Module
	Mem   *mem.Memory
	Heap  *heap.Sectioned
	Keys  *pa.KeySet
	Meter *perf.Meter

	// Stdin provides the bytes the input channels consume. Attacks are
	// mounted purely by choosing these bytes.
	Stdin *InputStream
	// Stdout collects output-channel bytes (printf et al.).
	Stdout []byte

	// Fuel is the remaining instruction budget; Run fails with
	// ErrOutOfFuel when it reaches zero.
	Fuel int64

	// SP is the current stack pointer (grows down).
	SP uint64

	// rng drives canary randomization and the rand intrinsic, seeded
	// with seed on the first draw (see random), so a machine that never
	// draws never builds the source.
	rng  *rand.Rand
	seed int64

	// dfiRDT is the runtime definitions table keyed by address.
	dfiRDT map[uint64]int

	globalAddrs map[*ir.Global]uint64
	funcAddrs   map[*ir.Func]uint64
	funcByAddr  map[uint64]*ir.Func
	depth       int

	// canaryShadow maps canary slot address -> expected signed value, so
	// the check can distinguish "attacker rewrote the slot" even in the
	// 2^-24 case where a forged PAC happens to verify.
	canaryShadow map[uint64]uint64

	// objMAC maps a sealed object's base address to its current pacga
	// MAC (the obj.seal/obj.check mechanism). Frame teardown discards
	// stack-range entries.
	objMAC map[uint64]uint64

	// prof holds each executed function's profile: one counter per
	// instruction, written by both engines (see obs.go).
	prof map[*ir.Func]*profile

	// decoded caches the pre-decoded form of every executed function;
	// plans caches DefaultPlan results for plan-less functions.
	decoded map[*ir.Func]*dfunc
	plans   map[*ir.Func]*ir.StackPlan

	// slotFree is a LIFO pool of slot files recycled across frames, and
	// zeroBuf the reusable frame-zeroing scratch.
	slotFree [][]uint64
	zeroBuf  []byte

	// args is the decoded engine's argument stack: a call pushes its
	// arguments, the callee's frame reads them in place, and the return
	// pops them. readBuf is the reusable buffer of readBuffered.
	args    []uint64
	readBuf []byte

	// ref forces every call through the reference interpreter.
	ref bool

	// sectionInitDone tracks the one-time heap sectioning cost.
	sectionInitDone bool

	// cov receives branch-edge coverage from the decoded engine; nil
	// whenever coverage is disabled, so taken branches pay one nil check.
	cov *Coverage

	// obs is the machine's observability attachment (flight recorder,
	// metrics, site profiling); nil whenever observability is disabled,
	// so the engines' tick paths pay one nil check.
	obs *obsState
}

// Config bundles machine construction options.
type Config struct {
	Seed int64
	Fuel int64

	// MaxPages caps the simulated address space's committed 4 KiB pages
	// (0 = unlimited). The cap is installed after image layout, so it
	// quotas runtime growth — heap, stack, globals written later — and a
	// run that exceeds it terminates with a FaultOOM fault instead of
	// ballooning the host process; alongside Fuel this bounds both axes
	// a tenant's program can burn.
	MaxPages int

	// Reference selects the pre-decode tree-walking interpreter instead
	// of the slot engine. It exists for differential testing — the two
	// engines must produce byte-identical results — and costs roughly
	// 2× the run time; production callers leave it false.
	Reference bool

	// Flight arms a fault flight recorder keeping the last N executed
	// instructions, independent of any obs.Session; faults then carry a
	// Forensics report. Zero leaves the recorder off.
	Flight int

	// Cover, when non-nil, receives branch-edge coverage from the
	// decoded engine — the fuzzer's feedback signal. Same
	// nil-check-when-disabled pattern as Flight; see cover.go.
	Cover *Coverage
}

// New loads mod into a fresh machine image.
func New(mod *ir.Module, cfg Config) *Machine {
	if cfg.Fuel == 0 {
		cfg.Fuel = DefaultFuel
	}
	m := &Machine{
		Mod:   mod,
		Mem:   mem.New(),
		Heap:  heap.NewSectioned(mem.SharedBase, mem.SharedLimit, mem.IsolatedBase, mem.IsolatedLim),
		Keys:  pa.NewKeySet(uint64(cfg.Seed) ^ 0xA5A5_5A5A_1234_8765),
		Meter: perf.NewMeter(perf.DefaultModel()),
		Stdin: NewInputStream(nil),
		Fuel:  cfg.Fuel,
		// Reserve a page above the first frame for the argv/environ area
		// a real process has, so a top-frame overflow corrupts it instead
		// of running off the mapped stack.
		SP:           mem.StackTop - 4096,
		seed:         cfg.Seed,
		dfiRDT:       make(map[uint64]int),
		globalAddrs:  make(map[*ir.Global]uint64),
		funcAddrs:    make(map[*ir.Func]uint64),
		funcByAddr:   make(map[uint64]*ir.Func),
		canaryShadow: make(map[uint64]uint64),
		objMAC:       make(map[uint64]uint64),
		prof:         make(map[*ir.Func]*profile),
		decoded:      make(map[*ir.Func]*dfunc),
		plans:        make(map[*ir.Func]*ir.StackPlan),
		ref:          cfg.Reference,
		cov:          cfg.Cover,
	}
	m.obs = newObsState(cfg)
	m.layoutImage()
	if cfg.MaxPages > 0 {
		// Install the quota after layout: the image (globals, seals) is
		// always mapped; the cap governs what the run commits on top.
		m.Mem.SetPageLimit(cfg.MaxPages)
	}
	return m
}

// layoutImage assigns addresses to globals and function entry stubs and
// copies initial data.
func (m *Machine) layoutImage() {
	addr := mem.GlobalBase
	for _, g := range m.Mod.Globals {
		m.globalAddrs[g] = addr
		if len(g.Init) > 0 {
			if err := m.Mem.WriteBytes(addr, g.Init); err != nil {
				panic(fmt.Sprintf("vm: global init: %v", err))
			}
		}
		if g.Sealed {
			// Seal the initial value so the first check.load passes.
			v, err := m.Mem.ReadUint(addr, 8)
			if err == nil {
				err = m.Mem.WriteUint(addr+8, pa.GenericMAC(v, addr, m.Keys.APGA), 8)
			}
			if err != nil {
				panic(fmt.Sprintf("vm: sealing global @%s: %v", g.GName, err))
			}
		}
		sz := g.Elem.Size()
		if sz < 1 {
			sz = 1
		}
		addr += uint64(sz+15) &^ 15
	}
	caddr := mem.CodeBase
	for _, f := range m.Mod.Funcs {
		m.funcAddrs[f] = caddr
		m.funcByAddr[caddr] = f
		caddr += 16
	}
}

// Fault classifies why a run terminated abnormally — this is the
// detection signal the security experiments consume.
type Fault struct {
	Kind FaultKind
	Err  error
	// Func/Instr locate the faulting instruction when known.
	Func  string
	Instr string

	// Forensics is the flight-recorder report, present when the machine
	// was built with a flight window (Config.Flight).
	Forensics *obs.FaultReport
}

// FaultKind enumerates crash causes.
type FaultKind int

// Fault kinds, ordered roughly by detection mechanism.
const (
	FaultNone    FaultKind = iota
	FaultSegv              // memory violation (baseline crash)
	FaultPAC               // pointer authentication failure (CPA / Pythia)
	FaultCanary            // canary integrity check failure (Pythia)
	FaultDFI               // CHKDEF mismatch (DFI baseline)
	FaultOOF               // out of fuel
	FaultRuntime           // division by zero, stack overflow, etc.
	FaultOOM               // simulated page quota exhausted (Config.MaxPages)
)

var faultNames = [...]string{"none", "segv", "pac", "canary", "dfi", "out-of-fuel", "runtime", "oom"}

func (k FaultKind) String() string {
	if k < 0 || int(k) >= len(faultNames) {
		return "?"
	}
	return faultNames[k]
}

func (f *Fault) Error() string {
	if f == nil {
		return "<no fault>"
	}
	return fmt.Sprintf("%s fault in @%s at [%s]: %v", f.Kind, f.Func, f.Instr, f.Err)
}

// ErrOutOfFuel reports budget exhaustion.
var ErrOutOfFuel = errors.New("vm: instruction budget exhausted")

// oomOr classifies a memory-subsystem error: page-quota exhaustion
// (mem.LimitError) is FaultOOM — the same typed-error and forensics
// treatment as FaultOOF — while anything else keeps the caller's
// fallback kind.
func oomOr(err error, fallback FaultKind) FaultKind {
	var le *mem.LimitError
	if errors.As(err, &le) {
		return FaultOOM
	}
	return fallback
}

// memKind maps an error from a load/store to its fault kind: OOM for
// quota exhaustion, segv for everything else package mem reports.
func memKind(err error) FaultKind { return oomOr(err, FaultSegv) }

// Result summarises one program run.
type Result struct {
	Ret      uint64
	Fault    *Fault
	Counters *perf.Counters
	Stdout   []byte

	// SitesExecuted counts the distinct static hardening instructions
	// that ran at least once — the Fig. 6(b) "PA instructions executed
	// dynamically" metric.
	SitesExecuted int

	// Sites maps each hardening check site's stable id to its tally over
	// the machine's runs so far: executions, faults, and the modeled
	// cycles attributed to it, which are charged only while a session
	// arms Sites or Attrib. Only sites that ran or faulted appear; nil
	// when none did.
	Sites map[string]obs.SiteCount
}

// Run executes the named function with integer arguments and returns the
// result; a fault is reported in Result rather than as a Go error (a Go
// error means the harness itself was misused).
func (m *Machine) Run(fname string, args ...uint64) (*Result, error) {
	f := m.Mod.Func(fname)
	if f == nil {
		return nil, fmt.Errorf("vm: no function @%s", fname)
	}
	if f.IsDecl() {
		return nil, fmt.Errorf("vm: @%s is a declaration", fname)
	}
	if !m.sectionInitDone {
		// The sectioned allocator's setup cost is paid once per process
		// whenever the Pythia runtime is linked in (§6.2).
		if m.Mod.Func("secure_malloc") != nil {
			m.Meter.OnHeapSectionInit()
		}
		m.sectionInitDone = true
	}
	m.args = m.args[:0] // a fault in an earlier run unwinds without popping
	ret, fault := m.call(f, args)
	res := &Result{Ret: ret, Fault: fault, Counters: m.Meter.Counters(), Stdout: m.Stdout}
	if m.obs != nil {
		m.obsFlush(res)
	}
	m.tally(res)
	return res, nil
}

// execError carries a fault out of the recursive interpreter.
type execError struct{ f *Fault }

func (e *execError) Error() string { return e.f.Error() }

func (m *Machine) fault(kind FaultKind, f *ir.Func, in *ir.Instr, err error) *execError {
	flt := &Fault{Kind: kind, Err: err}
	if f != nil {
		flt.Func = f.FName
	}
	if in != nil {
		flt.Instr = in.String()
	}
	m.countFault(f, in)
	flt.Forensics = m.obsForensics(flt, in)
	return &execError{f: flt}
}

// call interprets one function invocation.
func (m *Machine) call(f *ir.Func, args []uint64) (ret uint64, fault *Fault) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(*execError); ok {
				fault = ee.f
				return
			}
			panic(r)
		}
	}()
	ret = m.invoke(f, args)
	return ret, nil
}

const maxDepth = 400

// invoke runs one call of f, dispatching to the decoded engine or the
// reference interpreter; faults propagate as execError panics so deeply
// nested interpreter frames unwind without error plumbing on every
// opcode.
func (m *Machine) invoke(f *ir.Func, args []uint64) uint64 {
	if m.ref {
		if m.obs != nil {
			m.obs.refCalls++
		}
		return m.refInvoke(f, args)
	}
	d := m.decodedFunc(f)
	if d.refOnly {
		// Functions the decoder cannot prove def-before-use for keep the
		// exact lazy fault semantics of the tree walker.
		if m.obs != nil {
			m.obs.refCalls++
		}
		return m.refInvoke(f, args)
	}
	if m.obs != nil {
		m.obs.decodedCalls++
	}
	return m.execDecoded(d, args)
}

// random returns the machine's RNG, seeding it on the first draw. The
// draws are the ones a source seeded in New would give.
func (m *Machine) random() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	return m.rng
}

// tick charges one retired instruction at its pc, in.ID, and burns
// fuel (reference-interpreter path; the decoded engine charges in
// execDecoded, or in dtick on an armed machine).
func (m *Machine) tick(fr *refFrame, in *ir.Instr) {
	site := in.Op.IsHardening()
	if m.obs != nil {
		m.obsTick(fr.f, in, fr.prof, int32(in.ID), site)
	} else if site {
		fr.prof.n[in.ID].execs++
	}
	m.Meter.OnInstr(in.Op)
	m.Fuel--
	if m.Fuel <= 0 {
		panic(m.fault(FaultOOF, fr.f, in, ErrOutOfFuel))
	}
}

// objectMAC computes the pacga MAC over an object's current contents:
// an FNV-1a digest of the bytes fed through the generic-MAC cipher, the
// software analogue of chained pacga over the object words.
func (m *Machine) objectMAC(f *ir.Func, in *ir.Instr, addr uint64, size int) uint64 {
	// Cost model: the hardware scheme authenticates per-element PACs in
	// parallel with the access, so the meter charges one access (the
	// caller's tick already charged the PA sequence); functionally we
	// verify the whole object so corruption anywhere is caught.
	h := uint64(0xcbf29ce484222325)
	for _, x := range m.readBuffered(f, in, addr, size) {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	m.Meter.OnLoad(addr)
	return pa.GenericMAC(h, addr, m.Keys.APGA)
}

// readBuffered reads n bytes at addr into the machine's read buffer,
// faulting as mem.Memory.AppendBytes does. The bytes are valid until the next
// readBuffered call; neither caller holds them across one.
func (m *Machine) readBuffered(f *ir.Func, in *ir.Instr, addr uint64, n int) []byte {
	b, err := m.Mem.AppendBytes(m.readBuf[:0], addr, n)
	if err != nil {
		panic(m.fault(memKind(err), f, in, err))
	}
	m.readBuf = b
	return b
}

func widthMask(t ir.Type) uint64 {
	it, ok := t.(*ir.IntType)
	if !ok || it.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(it.Bits)) - 1
}

func signExtend(v uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}
