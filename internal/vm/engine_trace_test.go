package vm_test

// Trace parity: the decoded slot engine and the reference interpreter
// must retire the identical (function, instruction) stream, not just
// reach identical end states. Each run records its whole stream in a
// flight recorder, so a forensic window never depends on which engine
// happened to run.

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// traceWindow is larger than the longest corpus run (1,329 ticks), so
// each flight recorder holds its run's whole stream.
const traceWindow = 4096

func recordRun(t *testing.T, mod *ir.Module, stdin string, reference bool) []obs.FlightEntry {
	t.Helper()
	m := vm.New(mod, vm.Config{Seed: 42, Reference: reference, Flight: traceWindow})
	m.Stdin.SetInput([]byte(stdin))
	m.Run("main")
	fl := m.Flight()
	if fl.Total() > traceWindow {
		t.Fatalf("run retired %d instructions, more than the %d-entry window", fl.Total(), traceWindow)
	}
	return fl.Window()
}

// TestEngineTraceParity sweeps the attack corpus — benign and malicious
// inputs, every scheme — and compares the full instruction streams.
func TestEngineTraceParity(t *testing.T) {
	cases := attack.Corpus()
	if testing.Short() {
		cases = cases[:3]
	}
	for i := range cases {
		c := &cases[i]
		for _, scheme := range core.Schemes {
			for _, input := range []struct {
				label string
				data  string
			}{{"benign", c.Benign}, {"malicious", c.Malicious}} {
				t.Run(fmt.Sprintf("%s/%v/%s", c.Name, scheme, input.label), func(t *testing.T) {
					prog, err := core.Build(c.Name, c.Source, scheme)
					if err != nil {
						t.Fatal(err)
					}
					dec := recordRun(t, prog.Mod, input.data, false)
					ref := recordRun(t, prog.Mod, input.data, true)
					if len(dec) != len(ref) {
						t.Fatalf("stream length diverged: decoded %d, reference %d", len(dec), len(ref))
					}
					for j := range dec {
						if dec[j] != ref[j] {
							t.Fatalf("step %d diverged:\n  decoded:   @%s  %s\n  reference: @%s  %s",
								j, dec[j].Func, dec[j].Instr, ref[j].Func, ref[j].Instr)
						}
					}
				})
			}
		}
	}
}
