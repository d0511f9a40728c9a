package ir

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode.
type Op int

// Instruction opcodes. The set intentionally mirrors the subset of LLVM
// IR the Pythia passes operate on, plus the ARM-PA and canary intrinsics
// the paper adds ("we created intrinsic functions for ARM-PA encryption
// for the remaining loads, stores, and alloca instructions").
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca // result = alloca T            (args: none; AllocTy = T)
	OpLoad   // result = load T, T* addr     (args: addr)
	OpStore  // store T val, T* addr         (args: val, addr)
	OpGEP    // result = gep T* base, idx... (args: base, indices...)

	// Arithmetic / logic (integer only).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr

	// Comparison; Pred selects the relation.
	OpICmp

	// Conversions between integer widths and pointer/integer.
	OpTrunc
	OpZExt
	OpSExt
	OpPtrToInt
	OpIntToPtr

	// Control flow.
	OpBr     // br label                     (Succs[0])
	OpCondBr // condbr cond, then, else      (args: cond; Succs[0,1])
	OpPhi    // result = phi [v, pred]...
	OpCall   // result = call f(args...)     (Callee)
	OpRet    // ret [val]

	// Misc.
	OpSelect // result = select cond, a, b

	// ARM-PA intrinsics inserted by the hardening passes (package harden).
	OpPacSign  // result = pac.sign ptr, modifier   — attach PAC (pacda)
	OpPacAuth  // result = pac.auth ptr, modifier   — verify + strip (autda)
	OpPacStrip // result = pac.strip ptr            — strip without check (xpac)

	// PA-sealed scalar accesses: a protected scalar occupies a
	// [value:8 | pac:8] pair; seal computes the keyed MAC with pacga and
	// check verifies its truncated 24-bit PAC before handing the value
	// out. These realize the paper's "create a data pointer for each
	// non-pointer vulnerable variable, encrypt at definition, check
	// before every use" on arbitrary 64-bit values.
	OpSealStore // seal.store val, addr
	OpCheckLoad // result = check.load addr

	// Object-granular sealing for vulnerable aggregates: a pacga MAC
	// over the object's bytes, refreshed after legitimate writes and
	// verified before reads.
	OpObjSeal  // obj.seal addr, sizeconst
	OpObjCheck // obj.check addr, sizeconst

	// Canary intrinsics (Pythia stack scheme, Alg. 3).
	OpCanarySet   // canary.set slotaddr            — write fresh random PA-signed canary
	OpCanaryCheck // canary.check slotaddr          — authenticate; fault on mismatch

	// DFI runtime checks (baseline, Castro et al.).
	OpSetDef // dfi.setdef defid, addr
	OpChkDef // dfi.chkdef addr, allowedset

	opMax
)

var opNames = [...]string{
	OpInvalid:     "invalid",
	OpAlloca:      "alloca",
	OpLoad:        "load",
	OpStore:       "store",
	OpGEP:         "gep",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpSDiv:        "sdiv",
	OpSRem:        "srem",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpShl:         "shl",
	OpAShr:        "ashr",
	OpICmp:        "icmp",
	OpTrunc:       "trunc",
	OpZExt:        "zext",
	OpSExt:        "sext",
	OpPtrToInt:    "ptrtoint",
	OpIntToPtr:    "inttoptr",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpPhi:         "phi",
	OpCall:        "call",
	OpRet:         "ret",
	OpSelect:      "select",
	OpPacSign:     "pac.sign",
	OpPacAuth:     "pac.auth",
	OpPacStrip:    "pac.strip",
	OpSealStore:   "seal.store",
	OpCheckLoad:   "check.load",
	OpObjSeal:     "obj.seal",
	OpObjCheck:    "obj.check",
	OpCanarySet:   "canary.set",
	OpCanaryCheck: "canary.check",
	OpSetDef:      "dfi.setdef",
	OpChkDef:      "dfi.chkdef",
}

// NumOps returns the number of defined opcodes — the size cost tables
// and decode dispatch arrays indexed by Op must have.
func NumOps() int { return int(opMax) }

func (o Op) String() string {
	if o <= OpInvalid || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// IsBinOp reports whether o is a two-operand arithmetic/logic opcode.
func (o Op) IsBinOp() bool { return o >= OpAdd && o <= OpAShr }

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// IsCast reports whether o converts between scalar representations.
func (o Op) IsCast() bool { return o >= OpTrunc && o <= OpIntToPtr }

// IsPA reports whether o is an ARM-PA intrinsic. These are the
// instructions counted in Fig. 6(b) of the paper.
func (o Op) IsPA() bool {
	switch o {
	case OpPacSign, OpPacAuth, OpPacStrip, OpSealStore, OpCheckLoad, OpObjSeal, OpObjCheck:
		return true
	}
	return false
}

// IsHardening reports whether o was inserted by a defense pass rather
// than the front-end: PA intrinsics, canary ops, and DFI checks.
func (o Op) IsHardening() bool {
	return o.IsPA() || o == OpCanarySet || o == OpCanaryCheck || o == OpSetDef || o == OpChkDef
}

// Pred is an integer comparison predicate for OpICmp.
type Pred int

// Comparison predicates (all signed; MiniC has no unsigned types).
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

var predNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge"}

func (p Pred) String() string {
	if p < 0 || int(p) >= len(predNames) {
		return "??"
	}
	return predNames[p]
}

// PhiEdge is one incoming (value, predecessor) pair of a phi.
type PhiEdge struct {
	Val  Value
	Pred *Block
}

// Instr is a single IR instruction. One flat struct with an opcode keeps
// the many rewriting passes in this repository compact; unused fields are
// nil for most opcodes (documented per-opcode above).
type Instr struct {
	Op   Op
	Nam  string // SSA result name; "" when no result
	Typ  Type   // result type (Void for non-producing instructions)
	Args []Value

	AllocTy  Type      // OpAlloca: allocated type
	Pred     Pred      // OpICmp
	Succs    []*Block  // OpBr (1), OpCondBr (2: then, else)
	Callee   *Func     // OpCall
	Incoming []PhiEdge // OpPhi
	Allowed  []int     // OpChkDef: permitted reaching-definition IDs

	// DefID is OpSetDef's static definition identifier, and on a DFI
	// build the definition id of an input-channel OpCall's writes
	// (vm.DFIWildcard when DFI cannot resolve the destination).
	DefID int

	// Sealed marks an OpAlloca widened to a [value|PAC] pair (Alg. 2),
	// Canary one holding a PA-signed canary (Alg. 3).
	Sealed, Canary bool
	Site           string // a hardening op's check-site id (harden.AssignSites)

	Block *Block // owning block (maintained by Block helpers)

	// ID is the instruction's position in its function's block order,
	// phis included, on every built module: the front end and the
	// hardening passes set it (Func.Renumber) before a module leaves
	// them, Verify checks it, and the codec, the slicer and the VM index
	// by it without rebuilding or rewriting it.
	ID int
}

// NewInstr constructs a detached instruction.
func NewInstr(op Op, name string, typ Type, args ...Value) *Instr {
	if typ == nil {
		typ = Void
	}
	return &Instr{Op: op, Nam: name, Typ: typ, Args: args}
}

func (in *Instr) Name() string { return in.Nam }
func (in *Instr) Type() Type   { return in.Typ }
func (in *Instr) Operand() string {
	if in.Nam == "" {
		return "%<void>"
	}
	return "%" + in.Nam
}

// HasResult reports whether the instruction produces an SSA value.
func (in *Instr) HasResult() bool { return in.Nam != "" && !in.Typ.Equal(Void) }

// String renders the instruction in its textual form.
func (in *Instr) String() string {
	var b strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&b, "%%%s = ", in.Nam)
	}
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %s", in.AllocTy)
	case OpLoad:
		fmt.Fprintf(&b, "load %s, %s", in.Typ, operandList(in.Args))
	case OpStore:
		fmt.Fprintf(&b, "store %s", operandList(in.Args))
	case OpICmp:
		fmt.Fprintf(&b, "icmp %s %s", in.Pred, operandList(in.Args))
	case OpBr:
		fmt.Fprintf(&b, "br label %%%s", in.Succs[0].Name)
	case OpCondBr:
		fmt.Fprintf(&b, "condbr %s, label %%%s, label %%%s",
			in.Args[0].Operand(), in.Succs[0].Name, in.Succs[1].Name)
	case OpPhi:
		fmt.Fprintf(&b, "phi %s ", in.Typ)
		for i, e := range in.Incoming {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[%s, %%%s]", e.Val.Operand(), e.Pred.Name)
		}
	case OpCall:
		fmt.Fprintf(&b, "call %s @%s(%s)", in.Typ, in.Callee.FName, operandList(in.Args))
	case OpRet:
		if len(in.Args) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", in.Args[0].Operand())
		}
	case OpChkDef:
		fmt.Fprintf(&b, "dfi.chkdef %s, %v", operandList(in.Args), in.Allowed)
	case OpSetDef:
		fmt.Fprintf(&b, "dfi.setdef #%d, %s", in.DefID, operandList(in.Args))
	default:
		fmt.Fprintf(&b, "%s %s", in.Op, operandList(in.Args))
	}
	return b.String()
}

func operandList(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Operand()
	}
	return strings.Join(parts, ", ")
}
