package bench_test

// Differential tests for the IR binary codec: for every workload
// profile under every scheme, the instrumented module must survive an
// encode → decode round trip with no observable behavior change — same
// textual form, deterministic bytes, and identical execution on both VM
// engines. This is the guarantee the persistent artifact cache stands
// on: a module reloaded from disk is the module that was compiled.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workload"
)

// runModules executes main() on two modules over the same input and
// reports any observable divergence — the module-level analogue of
// runEngines.
func runModules(t *testing.T, a, b *ir.Module, stdin string) {
	t.Helper()
	var results [2]*vm.Result
	for i, mod := range []*ir.Module{a, b} {
		m := vm.New(mod, vm.Config{Seed: 42})
		m.Stdin.SetInput([]byte(stdin))
		res, err := m.Run("main")
		if err != nil {
			t.Fatalf("module %d: %v", i, err)
		}
		results[i] = res
	}
	x, y := results[0], results[1]
	if got, want := faultString(x.Fault), faultString(y.Fault); got != want {
		t.Errorf("fault diverged:\n  original: %s\n  decoded:  %s", got, want)
	}
	if x.Ret != y.Ret {
		t.Errorf("return diverged: original %d, decoded %d", x.Ret, y.Ret)
	}
	if !bytes.Equal(x.Stdout, y.Stdout) {
		t.Errorf("stdout diverged:\n  original: %q\n  decoded:  %q", x.Stdout, y.Stdout)
	}
	if *x.Counters != *y.Counters {
		t.Errorf("counters diverged:\n  original: %+v\n  decoded:  %+v", *x.Counters, *y.Counters)
	}
	if x.SitesExecuted != y.SitesExecuted {
		t.Errorf("sites executed diverged: original %d, decoded %d", x.SitesExecuted, y.SitesExecuted)
	}
}

// TestSerializeDiffWorkloads sweeps the full workload suite under every
// scheme (a 4-profile subset in -short mode): encode → decode, then
// drive the decoded module through the engine differential harness and
// against the original module.
func TestSerializeDiffWorkloads(t *testing.T) {
	profiles := workload.Profiles()
	if testing.Short() || raceEnabled {
		profiles = profiles[:4]
	}
	for i := range profiles {
		p := &profiles[i]
		for _, scheme := range core.Schemes {
			t.Run(fmt.Sprintf("%s/%v", p.Name, scheme), func(t *testing.T) {
				prog, err := workload.Build(p, scheme)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := ir.EncodeModule(prog.Mod)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := ir.DecodeModule(enc)
				if err != nil {
					t.Fatal(err)
				}
				if dec.String() != prog.Mod.String() {
					t.Error("decoded module prints differently")
				}
				enc2, err := ir.EncodeModule(dec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, enc2) {
					t.Error("re-encoding the decode changed bytes")
				}
				// The decoded module must behave identically to the
				// original on the default engine, and identically across
				// both engines.
				runModules(t, prog.Mod, dec, workload.Stdin(p))
				runEngines(t, dec, workload.Stdin(p), false)
			})
		}
	}
}
