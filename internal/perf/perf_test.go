package perf_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/perf"
)

func TestMeterChargesPlainInstr(t *testing.T) {
	m := perf.NewMeter(perf.DefaultModel())
	m.OnInstr(ir.OpAdd)
	c := m.Counters()
	if c.Instrs != 1 {
		t.Fatalf("instrs = %d", c.Instrs)
	}
	if c.Cycles <= 0 || c.Cycles >= 1 {
		t.Fatalf("one plain op should cost a fraction of a cycle on a wide core, got %v", c.Cycles)
	}
}

func TestMeterPAExpansion(t *testing.T) {
	mdl := perf.DefaultModel()
	m := perf.NewMeter(mdl)
	m.OnInstr(ir.OpCheckLoad)
	c := m.Counters()
	if c.PAInstrs != 1 {
		t.Fatalf("PA count = %d", c.PAInstrs)
	}
	if c.Instrs != int64(mdl.PAExpand) {
		t.Fatalf("PA op must expand to %v retired instructions, got %d", mdl.PAExpand, c.Instrs)
	}
	// IPC of PA-dominated code must stay near the core's width — the
	// Fig. 5(a) property that overhead is mostly extra instructions.
	ipc := c.IPC()
	if ipc < mdl.RetireWidth*0.5 {
		t.Fatalf("PA IPC collapsed to %.2f", ipc)
	}
}

func TestMeterCanaryAndDFI(t *testing.T) {
	m := perf.NewMeter(perf.DefaultModel())
	m.OnInstr(ir.OpCanarySet)
	m.OnInstr(ir.OpCanaryCheck)
	if c := m.Counters(); c.CanaryOps != 2 || c.PAInstrs != 2 {
		t.Fatalf("canary counters: %+v", c)
	}
	m.OnInstr(ir.OpSetDef)
	m.OnInstr(ir.OpChkDef)
	if c := m.Counters(); c.DFIOps != 2 {
		t.Fatalf("dfi counters: %+v", c)
	}
}

func TestBranchAndCallCosts(t *testing.T) {
	m := perf.NewMeter(perf.DefaultModel())
	m.OnInstr(ir.OpCondBr)
	m.OnInstr(ir.OpBr)
	m.OnInstr(ir.OpCall)
	if c := m.Counters(); c.Branches != 2 || c.Calls != 1 {
		t.Fatalf("%+v", c)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := perf.NewCache(4, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) || !c.Access(0x1008) {
		t.Fatal("same line must hit")
	}
	if c.Access(0x2000) {
		t.Fatal("different line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := perf.NewCache(1, 2, 64) // one set, two ways
	c.Access(0x0000)             // A
	c.Access(0x1000)             // B
	c.Access(0x0000)             // A again (B is LRU now)
	c.Access(0x2000)             // C evicts B
	if !c.Access(0x0000) {
		t.Fatal("A must still be resident")
	}
	if c.Access(0x1000) {
		t.Fatal("B must have been evicted (LRU)")
	}
}

func TestMeterLoadMissPenalty(t *testing.T) {
	m := perf.NewMeter(perf.DefaultModel())
	m.OnLoad(0x1000)
	c := m.Counters()
	if c.LLCMisses != 1 {
		t.Fatal("cold load must miss")
	}
	cold := c.Cycles
	m.OnLoad(0x1000)
	warm := m.Counters().Cycles - cold
	if warm >= cold {
		t.Fatalf("warm load (%.2f) must be far cheaper than cold (%.2f)", warm, cold)
	}
}

func TestBinarySizeWeighting(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("main", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	b.Ret(ir.ConstInt(ir.I64, 0))
	plain := perf.BinarySize(mod)
	if plain != 16+4 { // prologue + 1 instr
		t.Fatalf("plain size = %d", plain)
	}
	chk := ir.NewInstr(ir.OpCheckLoad, f.GenName("c"), ir.I64, ir.ConstInt(ir.I64, 0))
	f.Entry().InsertBefore(chk, f.Entry().Instrs[0])
	if got := perf.BinarySize(mod); got <= plain+4 {
		t.Fatalf("hardening op must weigh more than one instruction: %d vs %d", got, plain)
	}
	// Declarations contribute nothing.
	mod.NewFunc("ext", ir.Void, nil, nil).Sig.Variadic = false
}

func TestOverheadHelper(t *testing.T) {
	ov, err := perf.Overhead(100, 148)
	if err != nil || ov != 48 {
		t.Fatalf("overhead = %v, %v", ov, err)
	}
	for _, base := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := perf.Overhead(base, 5); err == nil {
			t.Errorf("base %v must be rejected, not reported as 0%% overhead", base)
		}
	}
	if _, err := perf.Overhead(100, math.NaN()); err == nil {
		t.Error("NaN instrumented cycles must be rejected")
	}
	if _, err := perf.Overhead(100, math.Inf(1)); err == nil {
		t.Error("infinite instrumented cycles must be rejected")
	}
}

func TestNSToCycles(t *testing.T) {
	m := perf.DefaultModel()
	if got := m.NSToCycles(23); got != 23*m.ClockGHz {
		t.Fatalf("NSToCycles = %v", got)
	}
}

func TestSecureMallocAndSectionInitCosts(t *testing.T) {
	mdl := perf.DefaultModel()
	m := perf.NewMeter(mdl)
	m.OnSecureMalloc()
	want := mdl.NSToCycles(mdl.SecureMallocNS)
	if c := m.Counters(); c.Cycles != want {
		t.Fatalf("secure malloc cost %v, want %v", c.Cycles, want)
	}
	m.OnHeapSectionInit()
	if m.Counters().Cycles != want+mdl.NSToCycles(mdl.HeapSectionInit) {
		t.Fatal("section init cost missing")
	}
}

func TestIPCZeroCycles(t *testing.T) {
	c := &perf.Counters{}
	if c.IPC() != 0 {
		t.Fatal("IPC of an empty run must be 0, not NaN")
	}
}

// TestMeterCountersFold retires every opcode, and one past the table, a
// varying number of times with loads and stores interleaved, and reads
// the counters along the way: the folded integer counters must equal
// totals computed here from the model, and Cycles must equal, bit for
// bit, the same charges summed in retirement order.
func TestMeterCountersFold(t *testing.T) {
	mdl := perf.DefaultModel()
	m := perf.NewMeter(mdl)
	shadow := perf.NewCache(512, 8, 64) // predicts the meter's hits
	var want perf.Counters
	retire := func(op ir.Op) {
		m.OnInstr(op)
		switch {
		case op == ir.OpCanarySet:
			want.Instrs += int64(mdl.CanaryExpand)
			want.PAInstrs++
			want.CanaryOps++
			want.Cycles += mdl.CanaryExpand/mdl.RetireWidth + mdl.CanaryRNGCost
		case op == ir.OpCanaryCheck:
			want.Instrs += int64(mdl.PAExpand)
			want.PAInstrs++
			want.CanaryOps++
			want.Cycles += mdl.PAExpand/mdl.RetireWidth + mdl.PACExtra
		case op.IsPA():
			want.Instrs += int64(mdl.PAExpand)
			want.PAInstrs++
			want.Cycles += mdl.PAExpand/mdl.RetireWidth + mdl.PACExtra
		case op == ir.OpSetDef:
			want.Instrs += int64(mdl.DFISetExpand)
			want.DFIOps++
			want.Cycles += mdl.DFISetExpand/mdl.RetireWidth + mdl.DFIExtra
		case op == ir.OpChkDef:
			want.Instrs += int64(mdl.DFIChkExpand)
			want.DFIOps++
			want.Cycles += mdl.DFIChkExpand/mdl.RetireWidth + mdl.DFIExtra
		case op == ir.OpCondBr:
			want.Instrs++
			want.Branches++
			want.Cycles += 1 / mdl.RetireWidth
			want.Cycles += mdl.BranchPenalty
		case op == ir.OpBr:
			want.Instrs++
			want.Branches++
			want.Cycles += 1 / mdl.RetireWidth
		case op == ir.OpCall:
			want.Instrs++
			want.Calls++
			want.Cycles += 1/mdl.RetireWidth + mdl.CallOverhead
		default:
			want.Instrs++
			want.Cycles += 1 / mdl.RetireWidth
		}
	}
	access := func(addr uint64, load bool) {
		want.LLCAccesses++
		if load {
			m.OnLoad(addr)
			want.Loads++
			want.Cycles += mdl.LoadExtra
		} else {
			m.OnStore(addr)
			want.Stores++
		}
		if !shadow.Access(addr) {
			want.LLCMisses++
			if load {
				want.Cycles += mdl.LLCMissPenalty
			} else {
				want.Cycles += mdl.LLCMissPenalty / 2
			}
		}
	}
	check := func(when string) {
		t.Helper()
		if got := *m.Counters(); got != want {
			t.Fatalf("%s: counters\n got %+v\nwant %+v", when, got, want)
		}
	}

	check("fresh meter")
	for round := 0; round < 3; round++ {
		for op := 0; op <= ir.NumOps(); op++ { // ir.NumOps() itself is out of range
			for k := 0; k < (op*7+round)%5+1; k++ {
				retire(ir.Op(op))
			}
			access(uint64(0x7eff_0000+op*4096+round*8), op%2 == 0)
			if op%9 == 0 {
				check(fmt.Sprintf("round %d, op %d", round, op))
			}
		}
		retire(ir.Op(-1))
		check(fmt.Sprintf("end of round %d", round))
	}
}

func TestNewCacheRejectsNonPowerOfTwoSets(t *testing.T) {
	for _, sets := range []int{0, -4, 3, 6, 500} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d, 8, 64) accepted a set count that is not a power of two", sets)
				}
			}()
			perf.NewCache(sets, 8, 64)
		}()
	}
	for _, sets := range []int{1, 2, 512} {
		perf.NewCache(sets, 8, 64)
	}
}
