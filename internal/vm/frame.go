package vm

// Stack-frame layout and lifetime shared by both execution engines (the
// pre-decoded slot engine and the reference interpreter): plan
// resolution with per-function DefaultPlan caching, frame-memory
// initialization (zeroing, canary installation, seal bootstrap, DFI
// table invalidation), and teardown.

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/pa"
)

// refFrame is one activation record of the reference interpreter.
type refFrame struct {
	f    *ir.Func
	prof *profile
	args []uint64
	regs map[*ir.Instr]uint64

	base uint64 // frame base = lowest address of the frame
	size int64
	plan *ir.StackPlan
}

// DefaultPlan lays allocas out in declaration order from the frame base
// upward — the layout an unhardened compiler would produce, and the one
// buffer overflows traverse (writes move toward higher addresses, i.e.
// toward later locals and then the caller's frame).
func DefaultPlan(f *ir.Func) *ir.StackPlan {
	p := &ir.StackPlan{}
	var off int64
	for _, a := range f.Allocas() {
		sz := a.AllocTy.Size()
		sz = (sz + 7) &^ 7
		p.Slots = append(p.Slots, ir.StackSlot{
			Alloca: a,
			Offset: off,
			Size:   sz,
			Sealed: a.Sealed,
			Canary: a.Canary,
		})
		off += sz
	}
	p.Size = off
	return p
}

// planOf resolves f's stack plan: the hardening pass's plan when set,
// otherwise a per-function cached DefaultPlan, so plan-less functions
// stop re-laying-out their frame on every call. A pass installing
// f.Plan after the cache warmed invalidates the cached default simply
// by shadowing it.
func (m *Machine) planOf(f *ir.Func) *ir.StackPlan {
	if f.Plan != nil {
		return f.Plan
	}
	if p, ok := m.plans[f]; ok {
		return p
	}
	p := DefaultPlan(f)
	m.plans[f] = p
	return p
}

// frameSize returns the aligned byte size of a frame laid out by plan.
func frameSize(plan *ir.StackPlan) int64 {
	size := plan.Size
	if size == 0 {
		size = 16
	}
	return (size + 15) &^ 15
}

// pushFrameMem moves SP down by size and initializes the new frame's
// memory: zeroing (a fresh C frame is garbage; zeroing makes the
// simulation deterministic), DFI table invalidation, canary
// installation, and seal bootstrap for sealed slots.
func (m *Machine) pushFrameMem(f *ir.Func, plan *ir.StackPlan, size int64) uint64 {
	newSP := m.SP - uint64(size)
	if newSP < mem.StackLimit {
		panic(m.fault(FaultRuntime, f, nil, errors.New("stack exhausted")))
	}
	base := newSP
	m.SP = newSP

	if int64(len(m.zeroBuf)) < size {
		m.zeroBuf = make([]byte, size)
	}
	if err := m.Mem.WriteBytes(base, m.zeroBuf[:size]); err != nil {
		panic(m.fault(oomOr(err, FaultRuntime), f, nil, err))
	}
	// The DFI runtime definitions table tracks *current* memory: entries
	// from a dead frame that happened to use these addresses are stale.
	if len(m.dfiRDT) > 0 {
		for a := base; a < base+uint64(size); a++ {
			delete(m.dfiRDT, a)
		}
	}
	for i := range plan.Slots {
		s := &plan.Slots[i]
		if s.Canary {
			m.installCanary(f, base+uint64(s.Offset))
		}
		if s.Sealed {
			// Seal the zero value so a read-before-write authenticates.
			slot := base + uint64(s.Offset)
			mac := pa.GenericMAC(0, slot, m.Keys.APGA)
			if err := m.Mem.WriteUint(slot+8, mac, 8); err != nil {
				panic(m.fault(oomOr(err, FaultRuntime), f, nil, err))
			}
		}
	}
	return base
}

// popFrameMem tears the frame down: canary shadows and object seals on
// its addresses die with it, and SP is restored.
func (m *Machine) popFrameMem(base uint64, size int64, plan *ir.StackPlan) {
	for i := range plan.Slots {
		s := &plan.Slots[i]
		if s.Canary {
			delete(m.canaryShadow, base+uint64(s.Offset))
		}
	}
	// Object seals on this frame's slots die with the frame, so a later
	// frame reusing the addresses starts unsealed. Most programs seal
	// nothing, and their returns skip the scan.
	if len(m.objMAC) > 0 {
		end := base + uint64(size)
		for addr := range m.objMAC {
			if addr >= base && addr < end {
				delete(m.objMAC, addr)
			}
		}
	}
	m.SP = base + uint64(size)
}

// installCanary initializes one canary slot at frame entry ("the canary
// values are re-randomized on every entry to the function", §4.4).
func (m *Machine) installCanary(f *ir.Func, slot uint64) {
	m.Meter.OnInstr(ir.OpCanarySet)
	m.canarySetAt(f, nil, slot)
}

// canaryNonceMask keeps the random nonce within the canonical address
// bits so the PAC field is entirely the keyed MAC.
const canaryNonceMask = pa.AddrMask

func signCanary(m *Machine, nonce, slot uint64) uint64 {
	return pa.Sign(nonce, slot, m.Keys.APGA)
}

func (m *Machine) canarySetAt(f *ir.Func, in *ir.Instr, slot uint64) {
	nonce := m.random().Uint64() & canaryNonceMask
	signed := signCanary(m, nonce, slot)
	m.Meter.OnStore(slot)
	if err := m.Mem.WriteUint(slot, signed, 8); err != nil {
		if in == nil {
			// A frame-entry install runs for no IR instruction: the
			// fault names the canary.set it stands for, built only here.
			in = ir.NewInstr(ir.OpCanarySet, "", ir.Void, ir.ConstInt(ir.I64, int64(slot)))
		}
		panic(m.fault(memKind(err), f, in, err))
	}
	m.canaryShadow[slot] = signed
}

// canaryCheckAt authenticates the slot contents; any overwrite that
// does not carry a valid PAC for this slot faults.
func (m *Machine) canaryCheckAt(f *ir.Func, in *ir.Instr, slot uint64) {
	m.Meter.OnLoad(slot)
	v, err := m.Mem.ReadUint(slot, 8)
	if err != nil {
		panic(m.fault(memKind(err), f, in, err))
	}
	if _, ok := pa.Auth(v, slot, m.Keys.APGA); !ok {
		panic(m.fault(FaultCanary, f, in, &canaryError{Addr: slot, Val: v}))
	}
	// A forged value may pass Auth with probability 2^-24; the shadow
	// catches the discrepancy so brute-force statistics stay exact.
	if want, ok := m.canaryShadow[slot]; ok && want != v {
		panic(m.fault(FaultCanary, f, in, &canaryError{Addr: slot, forged: true}))
	}
}

// newRefFrame pushes an activation record for the reference interpreter.
func (m *Machine) newRefFrame(f *ir.Func, args []uint64) *refFrame {
	plan := m.planOf(f)
	size := frameSize(plan)
	fr := &refFrame{
		f:    f,
		prof: m.profileOf(f),
		args: args,
		regs: make(map[*ir.Instr]uint64, 16),
		size: size,
		plan: plan,
	}
	fr.base = m.pushFrameMem(f, plan, size)
	return fr
}

func (m *Machine) popRefFrame(fr *refFrame) {
	m.popFrameMem(fr.base, fr.size, fr.plan)
}

// slotAddr returns the address of the slot backing alloca a.
func (fr *refFrame) slotAddr(m *Machine, a *ir.Instr) uint64 {
	if s := fr.plan.SlotFor(a); s != nil {
		return fr.base + uint64(s.Offset)
	}
	panic(m.fault(FaultRuntime, fr.f, a, fmt.Errorf("alloca %%%s missing from stack plan", a.Nam)))
}
