package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchSrc mixes the shapes that dominate real workloads: loop-carried
// arithmetic, array loads/stores through GEPs, calls, and branches.
const benchSrc = `
int mix(int a, int b) {
	return (a * 31 + b) % 1000003;
}

int main() {
	int buf[64];
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 64; i = i + 1) {
		buf[i] = i * i;
	}
	for (i = 0; i < 20000; i = i + 1) {
		int j;
		j = i % 64;
		acc = mix(acc, buf[j]);
		buf[j] = acc;
		if (acc > 500000) {
			acc = acc - 250000;
		}
	}
	return acc;
}
`

func benchModule(tb testing.TB) *ir.Module {
	tb.Helper()
	mod, err := minic.Compile("bench", benchSrc)
	if err != nil {
		tb.Fatal(err)
	}
	return mod
}

func runDispatch(b *testing.B, mod *ir.Module, cfg vm.Config) {
	want := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(mod, cfg)
		res, err := m.Run("main")
		if err != nil {
			b.Fatal(err)
		}
		if res.Fault != nil {
			b.Fatalf("unexpected fault: %v", res.Fault)
		}
		if i == 0 {
			want = res.Ret
		} else if res.Ret != want {
			b.Fatalf("nondeterministic result: %d vs %d", res.Ret, want)
		}
	}
}

// BenchmarkVMDispatch measures the pre-decoded slot engine on an
// interpretation-bound program (the tentpole metric for the execution
// engine rewrite).
func BenchmarkVMDispatch(b *testing.B) { runDispatch(b, benchModule(b), vm.Config{Seed: 7}) }

// BenchmarkVMDispatchReference measures the same program on the
// pre-decode tree-walking interpreter for comparison.
func BenchmarkVMDispatchReference(b *testing.B) {
	runDispatch(b, benchModule(b), vm.Config{Seed: 7, Reference: true})
}

// BenchmarkVMDispatchArmed measures the slot engine on the
// Pythia-hardened program with every per-instruction observer armed:
// a session's metrics, site profile, coverage and attribution, and the
// machine's flight recorder.
func BenchmarkVMDispatchArmed(b *testing.B) {
	mod := benchModule(b)
	if _, err := core.Protect(mod, core.SchemePythia); err != nil {
		b.Fatal(err)
	}
	obs.Start(&obs.Session{
		Metrics:  obs.NewRegistry(),
		Sites:    perf.NewSiteProf(),
		Coverage: obs.NewCoverageAgg(),
		Attrib:   obs.NewAttribAgg(),
	})
	defer obs.Stop()
	runDispatch(b, mod, vm.Config{Seed: 7, Flight: 16})
}

// BenchmarkMachineNew measures building a machine with pythiad's
// default per-request quotas (fuel 50M, 4,096 pages), without running
// it.
func BenchmarkMachineNew(b *testing.B) {
	mod := benchModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.New(mod, vm.Config{Seed: 7, Fuel: 50_000_000, MaxPages: 4096})
	}
}

// BenchmarkVMDecode measures the decoder alone: one machine decodes
// every defined function of a hardened mid-size module (523.xalancbmk_r
// under Pythia) afresh per iteration.
func BenchmarkVMDecode(b *testing.B) {
	prog, err := workload.Build(workload.ProfileByName("523.xalancbmk_r"), core.SchemePythia)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog.Mod, vm.Config{Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecodeAll()
	}
}
