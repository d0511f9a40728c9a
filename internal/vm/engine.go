package vm

// The pre-decoded execution engine: runs dfuncs produced by decode.go
// over a flat slot file, mirroring the reference interpreter's observable
// behaviour — fault kinds and messages, meter event order, RNG draws,
// fuel accounting — exactly, while touching no IR structures and no maps
// on the hot path.

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/pa"
)

// dframe is the decoded engine's activation record: arguments plus the
// flat slot file (value slots, then phi scratch).
type dframe struct {
	args  []uint64
	slots []uint64
	base  uint64
}

// get resolves a pre-decoded operand.
func (fr *dframe) get(o operand) uint64 {
	switch o.kind {
	case opdSlot:
		return fr.slots[o.idx]
	case opdConst:
		return o.val
	default:
		return fr.args[o.idx]
	}
}

// grabSlots pops a recycled slot file from the pool (or allocates one).
// Slots are not zeroed: decode.go proves every read slot was written
// first, and functions it cannot prove this for never run here.
func (m *Machine) grabSlots(n int) []uint64 {
	if k := len(m.slotFree); k > 0 {
		s := m.slotFree[k-1]
		m.slotFree = m.slotFree[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	c := n
	if c < 64 {
		c = 64
	}
	return make([]uint64, n, c)
}

func (m *Machine) putSlots(s []uint64) {
	if len(m.slotFree) < 64 {
		m.slotFree = append(m.slotFree, s)
	}
}

// dtick is the decoded engine's per-instruction charge on a machine
// with an observability attachment, equivalent to tick: observe and
// profile, meter, fuel. An unarmed machine charges inline in
// execDecoded instead.
func (m *Machine) dtick(d *dfunc, di *dinstr) {
	m.obsTick(d.f, di.in, d.prof, di.pc, di.site)
	m.Meter.OnInstr(di.op)
	m.Fuel--
	if m.Fuel <= 0 {
		panic(m.fault(FaultOOF, d.f, di.in, ErrOutOfFuel))
	}
}

// evalDPhi picks the incoming value for the edge taken from prev.
func (m *Machine) evalDPhi(d *dfunc, fr *dframe, p *dphi, prev int32) uint64 {
	for i, pr := range p.preds {
		if pr == prev {
			return fr.get(p.vals[i])
		}
	}
	name := "<entry>"
	if prev >= 0 {
		name = d.blocks[prev].b.Name
	}
	panic(m.fault(FaultRuntime, d.f, p.in, fmt.Errorf("phi has no edge for predecessor %v", name)))
}

// execDecoded runs one call of d's function on the slot engine.
func (m *Machine) execDecoded(d *dfunc, args []uint64) uint64 {
	f := d.f
	if m.depth >= maxDepth {
		panic(m.fault(FaultRuntime, f, nil, errors.New("stack overflow (call depth)")))
	}
	m.depth++
	defer func() { m.depth-- }()

	base := m.pushFrameMem(f, d.plan, d.frameSize)
	slots := m.grabSlots(d.nslots + d.maxPhis)
	fr := dframe{args: args, slots: slots, base: base}
	defer func() {
		m.putSlots(slots)
		m.popFrameMem(base, d.frameSize, d.plan)
	}()

	bi := int32(0) // entry block is Blocks[0]
	prev := int32(-1)
blockLoop:
	for {
		blk := &d.blocks[bi]
		if len(blk.phis) > 0 {
			// Phis evaluate in parallel against the incoming edge: all
			// values first, into the scratch tail; the OpPhi moves that
			// open the block's code then assign them in order.
			scratch := slots[d.nslots:]
			for i := range blk.phis {
				scratch[i] = m.evalDPhi(d, &fr, &blk.phis[i], prev)
			}
		}
		for ci := range blk.code {
			di := &blk.code[ci]
			// Every decoded instruction retires one tick before its own
			// work. An unarmed machine charges it here without a call.
			if m.obs != nil {
				m.dtick(d, di)
			} else {
				if di.site {
					d.prof.n[di.pc].execs++
				}
				m.Meter.OnInstr(di.op)
				m.Fuel--
				if m.Fuel <= 0 {
					panic(m.fault(FaultOOF, f, di.in, ErrOutOfFuel))
				}
			}
			switch di.op {
			case ir.OpPhi:
				slots[di.dst] = slots[di.aux]

			case ir.OpBr:
				prev, bi = bi, di.succ0
				if m.cov != nil {
					m.cov.hit(d.covBase, prev, bi)
				}
				continue blockLoop

			case ir.OpCondBr:
				prev = bi
				if fr.get(di.args[0])&1 != 0 {
					bi = di.succ0
				} else {
					bi = di.succ1
				}
				if m.cov != nil {
					m.cov.hit(d.covBase, prev, bi)
				}
				continue blockLoop

			case ir.OpRet:
				if len(di.args) == 1 {
					return fr.get(di.args[0])
				}
				return 0

			case ir.OpAlloca:
				if di.aux < 0 {
					panic(m.fault(FaultRuntime, f, di.in, fmt.Errorf("alloca %%%s missing from stack plan", di.in.Nam)))
				}
				slots[di.dst] = base + uint64(di.aux)

			case ir.OpLoad:
				addr := fr.get(di.args[0])
				m.Meter.OnLoad(addr)
				v, err := m.Mem.ReadUint(addr, di.size)
				if err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}
				slots[di.dst] = signExtend(v, di.size)

			case ir.OpStore:
				val := fr.get(di.args[0])
				addr := fr.get(di.args[1])
				m.Meter.OnStore(addr)
				if err := m.Mem.WriteUint(addr, val, di.size); err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}

			case ir.OpGEP:
				g := di.gep
				if g.generic {
					slots[di.dst] = m.execGEPGeneric(&fr, f, di)
				} else {
					addr := fr.get(di.args[0]) + g.constOff
					for i := range g.dyn {
						t := &g.dyn[i]
						addr += uint64(int64(fr.get(t.opd)) * t.scale)
					}
					slots[di.dst] = addr
				}

			case ir.OpAdd:
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) + int64(fr.get(di.args[1])))
			case ir.OpSub:
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) - int64(fr.get(di.args[1])))
			case ir.OpMul:
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) * int64(fr.get(di.args[1])))
			case ir.OpSDiv:
				b := int64(fr.get(di.args[1]))
				if b == 0 {
					panic(m.fault(FaultRuntime, f, di.in, errors.New("division by zero")))
				}
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) / b)
			case ir.OpSRem:
				b := int64(fr.get(di.args[1]))
				if b == 0 {
					panic(m.fault(FaultRuntime, f, di.in, errors.New("remainder by zero")))
				}
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) % b)
			case ir.OpAnd:
				slots[di.dst] = fr.get(di.args[0]) & fr.get(di.args[1])
			case ir.OpOr:
				slots[di.dst] = fr.get(di.args[0]) | fr.get(di.args[1])
			case ir.OpXor:
				slots[di.dst] = fr.get(di.args[0]) ^ fr.get(di.args[1])
			case ir.OpShl:
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) << uint(fr.get(di.args[1])&63))
			case ir.OpAShr:
				slots[di.dst] = uint64(int64(fr.get(di.args[0])) >> uint(fr.get(di.args[1])&63))

			case ir.OpICmp:
				a := int64(fr.get(di.args[0]))
				b := int64(fr.get(di.args[1]))
				var r bool
				switch di.pred {
				case ir.PredEQ:
					r = a == b
				case ir.PredNE:
					r = a != b
				case ir.PredLT:
					r = a < b
				case ir.PredLE:
					r = a <= b
				case ir.PredGT:
					r = a > b
				case ir.PredGE:
					r = a >= b
				}
				if r {
					slots[di.dst] = 1
				} else {
					slots[di.dst] = 0
				}

			case ir.OpTrunc, ir.OpZExt:
				slots[di.dst] = fr.get(di.args[0]) & di.umask
			case ir.OpSExt:
				slots[di.dst] = signExtend(fr.get(di.args[0]), di.size)
			case ir.OpPtrToInt, ir.OpIntToPtr:
				slots[di.dst] = fr.get(di.args[0])

			case ir.OpSelect:
				if fr.get(di.args[0])&1 != 0 {
					slots[di.dst] = fr.get(di.args[1])
				} else {
					slots[di.dst] = fr.get(di.args[2])
				}

			case ir.OpCall:
				// The arguments go on the machine's argument stack, which
				// the callee's frame reads in place; popping them when the
				// call returns leaves every live frame's arguments below
				// the top. Run resets the stack a fault unwound past.
				sp := len(m.args)
				for i := range di.args {
					m.args = append(m.args, fr.get(di.args[i]))
				}
				cargs := m.args[sp:len(m.args):len(m.args)]
				var rv uint64
				if callee := di.callee; callee.IsDecl() {
					v, err := m.intrinsic(f, di.in, callee, cargs)
					if err != nil {
						var ee *execError
						if errors.As(err, &ee) {
							panic(ee)
						}
						panic(m.fault(FaultRuntime, f, di.in, err))
					}
					rv = v
				} else {
					rv = m.invoke(callee, cargs)
				}
				m.args = m.args[:sp]
				if di.dst >= 0 {
					slots[di.dst] = rv
				}

			case ir.OpPacSign:
				slots[di.dst] = pa.Sign(fr.get(di.args[0]), fr.get(di.args[1]), m.Keys.APDA)

			case ir.OpPacAuth:
				ptr := fr.get(di.args[0])
				mod := fr.get(di.args[1])
				out, ok := pa.Auth(ptr, mod, m.Keys.APDA)
				if !ok {
					panic(m.fault(FaultPAC, f, di.in, &pa.AuthError{Ptr: ptr, Modifier: mod}))
				}
				slots[di.dst] = out

			case ir.OpPacStrip:
				slots[di.dst] = pa.Strip(fr.get(di.args[0]))

			case ir.OpSealStore:
				val := fr.get(di.args[0])
				addr := fr.get(di.args[1])
				m.Meter.OnStore(addr)
				if err := m.Mem.WriteUint(addr, val, 8); err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}
				mac := pa.GenericMAC(val, addr, m.Keys.APGA)
				m.Meter.OnStore(addr + 8)
				if err := m.Mem.WriteUint(addr+8, mac, 8); err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}

			case ir.OpCheckLoad:
				addr := fr.get(di.args[0])
				m.Meter.OnLoad(addr)
				val, err := m.Mem.ReadUint(addr, 8)
				if err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}
				m.Meter.OnLoad(addr + 8)
				mac, err := m.Mem.ReadUint(addr+8, 8)
				if err != nil {
					panic(m.fault(memKind(err), f, di.in, err))
				}
				want := pa.GenericMAC(val, addr, m.Keys.APGA)
				// Hardware verifies only the PAC-width truncation of the MAC.
				if mac>>(64-pa.PACBits) != want>>(64-pa.PACBits) {
					panic(m.fault(FaultPAC, f, di.in, &sealError{Addr: addr}))
				}
				slots[di.dst] = val

			case ir.OpObjSeal:
				addr := fr.get(di.args[0])
				size := int(fr.get(di.args[1]))
				m.objMAC[addr] = m.objectMAC(f, di.in, addr, size)

			case ir.OpObjCheck:
				addr := fr.get(di.args[0])
				size := int(fr.get(di.args[1]))
				if want, sealed := m.objMAC[addr]; sealed {
					got := m.objectMAC(f, di.in, addr, size)
					if got>>(64-pa.PACBits) != want>>(64-pa.PACBits) {
						panic(m.fault(FaultPAC, f, di.in, &sealError{Addr: addr, Size: size, object: true}))
					}
				}

			case ir.OpCanarySet:
				m.canarySetAt(f, di.in, fr.get(di.args[0]))

			case ir.OpCanaryCheck:
				m.canaryCheckAt(f, di.in, fr.get(di.args[0]))

			case ir.OpSetDef:
				m.dfiRDT[fr.get(di.args[0])] = di.in.DefID

			case ir.OpChkDef:
				addr := fr.get(di.args[0])
				if id, ok := m.dfiRDT[addr]; ok {
					allowed := id == DFIWildcard
					for _, a := range di.in.Allowed {
						if a == id {
							allowed = true
							break
						}
					}
					if !allowed {
						panic(m.fault(FaultDFI, f, di.in, &dfiError{ID: id, Addr: addr}))
					}
				}

			default:
				panic(m.fault(FaultRuntime, f, di.in, fmt.Errorf("unimplemented opcode %s", di.in.Op)))
			}
		}
		// Control ran off the end of the block's code without a
		// terminator. The reference interpreter faults here without
		// charging a tick.
		if blk.latePhi != nil {
			panic(m.fault(FaultRuntime, f, blk.latePhi, errors.New("phi after non-phi")))
		}
		panic(m.fault(FaultRuntime, f, nil, fmt.Errorf("block %%%s fell through", blk.b.Name)))
	}
}

// execGEPGeneric re-runs the GEP type walk at execution time for shapes
// decodeGEP could not fold, reproducing the reference interpreter's
// faults (including "gep into scalar").
func (m *Machine) execGEPGeneric(fr *dframe, f *ir.Func, di *dinstr) uint64 {
	in := di.in
	base := fr.get(di.args[0])
	t := in.Args[0].Type().(*ir.PtrType).Elem
	idx0 := int64(fr.get(di.args[1]))
	addr := base + uint64(idx0*t.Size())
	for i := 2; i < len(di.args); i++ {
		idx := int64(fr.get(di.args[i]))
		switch ct := t.(type) {
		case *ir.ArrayType:
			addr += uint64(idx * ct.Elem.Size())
			t = ct.Elem
		case *ir.StructType:
			addr += uint64(ct.Offset(int(idx)))
			t = ct.Fields[idx].Type
		default:
			panic(m.fault(FaultRuntime, f, in, fmt.Errorf("gep into scalar %s", t)))
		}
	}
	return addr
}
