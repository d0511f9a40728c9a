package vm

// The reference interpreter: the original tree-walking evaluator that
// executes the IR directly, resolving every operand through a per-frame
// map. It is retained verbatim behind Config.Reference as the oracle the
// differential tests compare the pre-decoded engine against, and as the
// fallback for the rare function whose def-before-use discipline the
// decoder cannot prove (see dfunc.refOnly).

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/pa"
)

// refInvoke runs one call of f under the reference interpreter.
func (m *Machine) refInvoke(f *ir.Func, args []uint64) uint64 {
	if m.depth >= maxDepth {
		panic(m.fault(FaultRuntime, f, nil, errors.New("stack overflow (call depth)")))
	}
	m.depth++
	defer func() { m.depth-- }()

	fr := m.newRefFrame(f, args)
	defer m.popRefFrame(fr)

	blk := f.Entry()
	var prev *ir.Block
	for {
		// Phis first, evaluated in parallel against the incoming edge.
		var phiVals []uint64
		phis := blk.Phis()
		for _, p := range phis {
			phiVals = append(phiVals, m.refEvalPhi(fr, p, prev))
		}
		for i, p := range phis {
			fr.regs[p] = phiVals[i]
			m.tick(fr, p)
		}
		next, done, retv := m.refExecBlock(fr, blk, len(phis))
		if done {
			return retv
		}
		prev, blk = blk, next
	}
}

func (m *Machine) refEvalPhi(fr *refFrame, p *ir.Instr, pred *ir.Block) uint64 {
	for _, e := range p.Incoming {
		if e.Pred == pred {
			return m.refEval(fr, e.Val)
		}
	}
	panic(m.fault(FaultRuntime, fr.f, p, fmt.Errorf("phi has no edge for predecessor %v", predName(pred))))
}

func predName(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Name
}

// refExecBlock interprets blk starting after its phis. It returns the
// next block, or done=true with the return value.
func (m *Machine) refExecBlock(fr *refFrame, blk *ir.Block, skip int) (next *ir.Block, done bool, ret uint64) {
	f := fr.f
	for _, in := range blk.Instrs[skip:] {
		switch in.Op {
		case ir.OpPhi:
			panic(m.fault(FaultRuntime, f, in, errors.New("phi after non-phi")))
		case ir.OpBr:
			m.tick(fr, in)
			return in.Succs[0], false, 0
		case ir.OpCondBr:
			m.tick(fr, in)
			if m.refEval(fr, in.Args[0])&1 != 0 {
				return in.Succs[0], false, 0
			}
			return in.Succs[1], false, 0
		case ir.OpRet:
			m.tick(fr, in)
			if len(in.Args) == 1 {
				return nil, true, m.refEval(fr, in.Args[0])
			}
			return nil, true, 0
		default:
			m.refExecInstr(fr, in)
		}
	}
	panic(m.fault(FaultRuntime, f, nil, fmt.Errorf("block %%%s fell through", blk.Name)))
}

// refExecInstr handles every non-control opcode.
func (m *Machine) refExecInstr(fr *refFrame, in *ir.Instr) {
	f := fr.f
	m.tick(fr, in)
	switch in.Op {
	case ir.OpAlloca:
		fr.regs[in] = fr.slotAddr(m, in)

	case ir.OpLoad:
		addr := m.refEval(fr, in.Args[0])
		sz := int(in.Typ.Size())
		m.Meter.OnLoad(addr)
		v, err := m.Mem.ReadUint(addr, sz)
		if err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}
		fr.regs[in] = signExtend(v, sz)

	case ir.OpStore:
		val := m.refEval(fr, in.Args[0])
		addr := m.refEval(fr, in.Args[1])
		sz := int(in.Args[0].Type().Size())
		m.Meter.OnStore(addr)
		if err := m.Mem.WriteUint(addr, val, sz); err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}

	case ir.OpGEP:
		fr.regs[in] = m.refEvalGEP(fr, in)

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr:
		a := int64(m.refEval(fr, in.Args[0]))
		b := int64(m.refEval(fr, in.Args[1]))
		var v int64
		switch in.Op {
		case ir.OpAdd:
			v = a + b
		case ir.OpSub:
			v = a - b
		case ir.OpMul:
			v = a * b
		case ir.OpSDiv:
			if b == 0 {
				panic(m.fault(FaultRuntime, f, in, errors.New("division by zero")))
			}
			v = a / b
		case ir.OpSRem:
			if b == 0 {
				panic(m.fault(FaultRuntime, f, in, errors.New("remainder by zero")))
			}
			v = a % b
		case ir.OpAnd:
			v = a & b
		case ir.OpOr:
			v = a | b
		case ir.OpXor:
			v = a ^ b
		case ir.OpShl:
			v = a << uint(b&63)
		case ir.OpAShr:
			v = a >> uint(b&63)
		}
		fr.regs[in] = uint64(v)

	case ir.OpICmp:
		a := int64(m.refEval(fr, in.Args[0]))
		b := int64(m.refEval(fr, in.Args[1]))
		var r bool
		switch in.Pred {
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
			fr.regs[in] = 1
		} else {
			fr.regs[in] = 0
		}

	case ir.OpTrunc:
		v := m.refEval(fr, in.Args[0])
		fr.regs[in] = v & widthMask(in.Typ)
	case ir.OpZExt:
		v := m.refEval(fr, in.Args[0])
		fr.regs[in] = v & widthMask(in.Args[0].Type())
	case ir.OpSExt:
		v := m.refEval(fr, in.Args[0])
		fr.regs[in] = uint64(signExtend(v, int(in.Args[0].Type().Size())))
	case ir.OpPtrToInt, ir.OpIntToPtr:
		fr.regs[in] = m.refEval(fr, in.Args[0])

	case ir.OpSelect:
		if m.refEval(fr, in.Args[0])&1 != 0 {
			fr.regs[in] = m.refEval(fr, in.Args[1])
		} else {
			fr.regs[in] = m.refEval(fr, in.Args[2])
		}

	case ir.OpCall:
		fr.regs[in] = m.refExecCall(fr, in)

	case ir.OpPacSign:
		ptr := m.refEval(fr, in.Args[0])
		mod := m.refEval(fr, in.Args[1])
		fr.regs[in] = pa.Sign(ptr, mod, m.Keys.APDA)

	case ir.OpPacAuth:
		ptr := m.refEval(fr, in.Args[0])
		mod := m.refEval(fr, in.Args[1])
		out, ok := pa.Auth(ptr, mod, m.Keys.APDA)
		if !ok {
			panic(m.fault(FaultPAC, f, in, &pa.AuthError{Ptr: ptr, Modifier: mod}))
		}
		fr.regs[in] = out

	case ir.OpPacStrip:
		fr.regs[in] = pa.Strip(m.refEval(fr, in.Args[0]))

	case ir.OpSealStore:
		val := m.refEval(fr, in.Args[0])
		addr := m.refEval(fr, in.Args[1])
		m.Meter.OnStore(addr)
		if err := m.Mem.WriteUint(addr, val, 8); err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}
		mac := pa.GenericMAC(val, addr, m.Keys.APGA)
		m.Meter.OnStore(addr + 8)
		if err := m.Mem.WriteUint(addr+8, mac, 8); err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}

	case ir.OpCheckLoad:
		addr := m.refEval(fr, in.Args[0])
		m.Meter.OnLoad(addr)
		val, err := m.Mem.ReadUint(addr, 8)
		if err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}
		m.Meter.OnLoad(addr + 8)
		mac, err := m.Mem.ReadUint(addr+8, 8)
		if err != nil {
			panic(m.fault(memKind(err), f, in, err))
		}
		want := pa.GenericMAC(val, addr, m.Keys.APGA)
		// Hardware verifies only the PAC-width truncation of the MAC.
		if mac>>(64-pa.PACBits) != want>>(64-pa.PACBits) {
			panic(m.fault(FaultPAC, f, in, &sealError{Addr: addr}))
		}
		fr.regs[in] = val

	case ir.OpObjSeal:
		addr := m.refEval(fr, in.Args[0])
		size := int(m.refEval(fr, in.Args[1]))
		m.objMAC[addr] = m.objectMAC(f, in, addr, size)

	case ir.OpObjCheck:
		addr := m.refEval(fr, in.Args[0])
		size := int(m.refEval(fr, in.Args[1]))
		if want, sealed := m.objMAC[addr]; sealed {
			got := m.objectMAC(f, in, addr, size)
			if got>>(64-pa.PACBits) != want>>(64-pa.PACBits) {
				panic(m.fault(FaultPAC, f, in, &sealError{Addr: addr, Size: size, object: true}))
			}
		}

	case ir.OpCanarySet:
		// Re-randomization per §4.4 happens simply by executing
		// canary.set again before each input channel.
		m.canarySetAt(f, in, m.refEval(fr, in.Args[0]))

	case ir.OpCanaryCheck:
		m.canaryCheckAt(f, in, m.refEval(fr, in.Args[0]))

	case ir.OpSetDef:
		addr := m.refEval(fr, in.Args[0])
		m.dfiRDT[addr] = in.DefID

	case ir.OpChkDef:
		addr := m.refEval(fr, in.Args[0])
		if id, ok := m.dfiRDT[addr]; ok {
			allowed := id == DFIWildcard
			for _, a := range in.Allowed {
				if a == id {
					allowed = true
					break
				}
			}
			if !allowed {
				panic(m.fault(FaultDFI, f, in, &dfiError{ID: id, Addr: addr}))
			}
		}

	default:
		panic(m.fault(FaultRuntime, f, in, fmt.Errorf("unimplemented opcode %s", in.Op)))
	}
}

func (m *Machine) refEvalGEP(fr *refFrame, in *ir.Instr) uint64 {
	base := m.refEval(fr, in.Args[0])
	t := in.Args[0].Type().(*ir.PtrType).Elem
	// First index scales by the pointee size.
	idx0 := int64(m.refEval(fr, in.Args[1]))
	addr := base + uint64(idx0*t.Size())
	for _, iv := range in.Args[2:] {
		idx := int64(m.refEval(fr, iv))
		switch ct := t.(type) {
		case *ir.ArrayType:
			addr += uint64(idx * ct.Elem.Size())
			t = ct.Elem
		case *ir.StructType:
			addr += uint64(ct.Offset(int(idx)))
			t = ct.Fields[idx].Type
		default:
			panic(m.fault(FaultRuntime, fr.f, in, fmt.Errorf("gep into scalar %s", t)))
		}
	}
	return addr
}

func (m *Machine) refExecCall(fr *refFrame, in *ir.Instr) uint64 {
	callee := in.Callee
	args := make([]uint64, len(in.Args))
	for i, a := range in.Args {
		args[i] = m.refEval(fr, a)
	}
	if callee.IsDecl() {
		v, err := m.intrinsic(fr.f, in, callee, args)
		if err != nil {
			var ee *execError
			if errors.As(err, &ee) {
				panic(ee)
			}
			panic(m.fault(FaultRuntime, fr.f, in, err))
		}
		return v
	}
	return m.invoke(callee, args)
}

// refEval resolves an operand to its runtime value.
func (m *Machine) refEval(fr *refFrame, v ir.Value) uint64 {
	switch x := v.(type) {
	case *ir.Const:
		return uint64(x.Val)
	case *ir.Global:
		return m.globalAddrs[x]
	case *ir.Param:
		return fr.args[x.Index]
	case *ir.Instr:
		val, ok := fr.regs[x]
		if !ok {
			panic(m.fault(FaultRuntime, fr.f, x, errors.New("use of undefined value")))
		}
		return val
	default:
		panic(m.fault(FaultRuntime, fr.f, nil, fmt.Errorf("unknown value kind %T", v)))
	}
}
