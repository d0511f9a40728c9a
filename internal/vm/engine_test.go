package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vm"
)

// TestRunAllocations: a run of benchSrc makes 20,000 calls, and a call
// allocates nothing, so building and running the machine stays far
// below one allocation per call.
func TestRunAllocations(t *testing.T) {
	mod := benchModule(t)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := vm.New(mod, vm.Config{Seed: 7}).Run("main")
		if err != nil || res.Fault != nil {
			t.Fatalf("run: %v %v", err, res.Fault)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("New+Run of benchSrc made %.0f allocations, want < 1000", allocs)
	}
}

// callArgsSrc reads all six parameters of six() after a recursive
// call, intrinsic calls and a nested call of itself whose arguments
// are the caller's in reverse, so a callee that clobbered its caller's
// arguments would change the result. Once mem2reg has promoted the
// parameter slots, as the pipeline's optimizer does, those reads go to
// the arguments themselves rather than to their spills.
const callArgsSrc = `
int depth(int n) {
	if (n <= 0) {
		return 0;
	}
	return n + depth(n - 1);
}

int six(int a, int b, int c, int d, int e, int f) {
	int s;
	s = depth(a + b);
	printf("%d %d\n", c, d);
	s = s + strlen("hello");
	if (f > 0) {
		s = s + six(e, d, c, b, a, f - 1);
	}
	return s + a + b * 10 + c * 100 + d * 1000 + e * 10000 + f * 100000;
}

int main() {
	return six(1, 2, 3, 4, 5, 2);
}
`

func TestCallArgsSurviveNestedCalls(t *testing.T) {
	// six(1,2,3,4,5,0) = depth(3)+5 + 54321          = 54332
	// six(5,4,3,2,1,1) = depth(9)+5 + 54332 + 112345 = 166727
	// six(1,2,3,4,5,2) = depth(3)+5 + 166727 + 254321 = 421059
	const want = 421059
	const wantOut = "3 4\n3 2\n3 4\n"
	for _, optimize := range []bool{false, true} {
		mod, err := minic.Compile("t", callArgsSrc)
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			irpass.Optimize(mod)
		}
		var results [2]*vm.Result
		for i, reference := range []bool{false, true} {
			res, err := vm.New(mod, vm.Config{Seed: 7, Reference: reference}).Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if res.Fault != nil || res.Ret != want || string(res.Stdout) != wantOut {
				t.Fatalf("optimize=%v reference=%v: ret %d stdout %q fault %v, want %d %q",
					optimize, reference, res.Ret, res.Stdout, res.Fault, want, wantOut)
			}
			results[i] = res
		}
		if *results[0].Counters != *results[1].Counters {
			t.Fatalf("optimize=%v: counters diverged:\n  decoded:   %+v\n  reference: %+v",
				optimize, *results[0].Counters, *results[1].Counters)
		}
	}
}

// malformedModule builds functions the front end never emits, each
// ending in a fault the decoded engine raises after its code runs out:
// a block without a terminator, a phi after a non-phi (reached through
// a block whose leading phi executes), and a phi without an edge for
// the block control came from.
func malformedModule() *ir.Module {
	mod := ir.NewModule("malformed")
	one := ir.ConstInt(ir.I64, 1)

	f := mod.NewFunc("fall", ir.I64, nil, nil)
	b := ir.NewBuilder(f, f.NewBlock("entry"))
	b.Bin(ir.OpAdd, one, one)

	f = mod.NewFunc("late", ir.I64, nil, nil)
	entry, body := f.NewBlock("entry"), f.NewBlock("body")
	b = ir.NewBuilder(f, entry)
	b.Br(body)
	b.SetBlock(body)
	p := b.Phi(ir.I64)
	ir.AddIncoming(p, one, entry)
	sum := b.Bin(ir.OpAdd, p, one)
	late := b.Phi(ir.I64)
	ir.AddIncoming(late, one, entry)
	b.Ret(sum)

	f = mod.NewFunc("noedge", ir.I64, nil, nil)
	entry, body, other := f.NewBlock("entry"), f.NewBlock("body"), f.NewBlock("other")
	b = ir.NewBuilder(f, entry)
	b.Br(body)
	b.SetBlock(other)
	b.Br(body)
	b.SetBlock(body)
	p = b.Phi(ir.I64)
	ir.AddIncoming(p, one, other)
	b.Ret(p)
	return numbered(mod)
}

// TestMalformedBlockFaultParity: both engines raise the same fault with
// the same counters, charging no tick for the faulting position, on an
// unarmed machine and under a flight recorder, whose windows must
// match. The decoded engine must run every function itself.
func TestMalformedBlockFaultParity(t *testing.T) {
	mod := malformedModule()
	for _, fn := range []string{"fall", "late", "noedge"} {
		reg := obs.NewRegistry()
		obs.Start(&obs.Session{Metrics: reg})
		_, err := vm.New(mod, vm.Config{Seed: 7}).Run(fn)
		obs.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("vm.engine.reference_calls").Value(); n != 0 {
			t.Fatalf("%s: %d calls fell back to the reference interpreter", fn, n)
		}

		for _, flight := range []int{0, 8} {
			var results [2]*vm.Result
			for i, reference := range []bool{false, true} {
				res, err := vm.New(mod, vm.Config{Seed: 7, Reference: reference, Flight: flight}).Run(fn)
				if err != nil {
					t.Fatal(err)
				}
				if res.Fault == nil || res.Fault.Kind != vm.FaultRuntime {
					t.Fatalf("%s reference=%v: fault %v, want a runtime fault", fn, reference, res.Fault)
				}
				results[i] = res
			}
			dec, ref := results[0], results[1]
			if dec.Fault.Error() != ref.Fault.Error() || *dec.Counters != *ref.Counters {
				t.Errorf("%s flight=%d diverged:\n  decoded:   %v %+v\n  reference: %v %+v",
					fn, flight, dec.Fault, *dec.Counters, ref.Fault, *ref.Counters)
			}
			if !reflect.DeepEqual(dec.Fault.Forensics, ref.Fault.Forensics) {
				t.Errorf("%s flight=%d forensics diverged:\n  decoded:   %+v\n  reference: %+v",
					fn, flight, dec.Fault.Forensics, ref.Fault.Forensics)
			}
			if (dec.Fault.Forensics != nil) != (flight > 0) {
				t.Errorf("%s flight=%d: forensics %v", fn, flight, dec.Fault.Forensics)
			}
		}
	}
}

// TestObjectMACFaultsLikeReadBytes: obj.seal over a negative size (a
// range that wraps the address space), a non-canonical address, an
// unmapped range or an oversized one faults with the error a plain
// memory read (AppendBytes into a nil buffer) reports for the same
// range.
func TestObjectMACFaultsLikeReadBytes(t *testing.T) {
	for _, tc := range []struct {
		addr uint64
		size int64
	}{
		{0x7eff_0000, -1},
		{0x7eff_0000, -0x7eff_0000},
		{0xffff_ffff_ff00, 0x200},
		{0x1000_0000, 16},
		{0x7eff_0000, 1 << 40},
	} {
		mod := ir.NewModule("t")
		f := mod.NewFunc("main", ir.I64, nil, nil)
		b := ir.NewBuilder(f, f.NewBlock("entry"))
		b.Cur.Append(ir.NewInstr(ir.OpObjSeal, "", ir.Void,
			ir.ConstInt(ir.I64, int64(tc.addr)), ir.ConstInt(ir.I64, tc.size)))
		b.Ret(ir.ConstInt(ir.I64, 0))
		_, want := mem.New().AppendBytes(nil, tc.addr, int(tc.size))
		if want == nil {
			t.Fatalf("AppendBytes(nil, %#x, %d) accepted the range", tc.addr, tc.size)
		}
		for _, reference := range []bool{false, true} {
			res, err := vm.New(numbered(mod), vm.Config{Seed: 7, Reference: reference}).Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if res.Fault == nil || res.Fault.Kind != vm.FaultSegv || res.Fault.Err.Error() != want.Error() {
				t.Errorf("obj.seal %#x, %d reference=%v: fault %v, want segv %v", tc.addr, tc.size, reference, res.Fault, want)
			}
			if !errors.As(res.Fault.Err, new(*mem.Fault)) {
				t.Errorf("obj.seal %#x, %d: fault error %T is not a mem fault", tc.addr, tc.size, res.Fault.Err)
			}
		}
	}
}
