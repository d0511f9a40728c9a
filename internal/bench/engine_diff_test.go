package bench_test

// Differential tests for the VM's two execution engines: every workload
// profile and every attack-corpus case, under all four schemes, must
// produce identical observable results on the pre-decoded slot engine
// (the default) and the pre-decode reference interpreter
// (vm.Config.Reference) — same return value, fault kind and message,
// stdout, every perf counter bit-for-bit, and the same per-site tally
// (executions and faults of every hardening check site); attack cases
// also rerun under an armed session and must agree on each site's
// attributed cycles too. This is the guarantee that lets the bench
// tables stay byte-identical across the engine rewrite.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

func faultString(f *vm.Fault) string {
	if f == nil {
		return "<ok>"
	}
	return f.Error()
}

// runEngines executes main() on both engines over the same module and
// input and reports any observable divergence, Result.Sites included.
// With armed set, both runs happen under a session arming Coverage and
// Attrib, which charges attributed cycles into Result.Sites.
func runEngines(t *testing.T, mod *ir.Module, stdin string, armed bool) {
	t.Helper()
	if armed {
		obs.Start(&obs.Session{Coverage: obs.NewCoverageAgg(), Attrib: obs.NewAttribAgg()})
		defer obs.Stop()
	}
	var results [2]*vm.Result
	for i, reference := range []bool{false, true} {
		m := vm.New(mod, vm.Config{Seed: 42, Reference: reference})
		m.Stdin.SetInput([]byte(stdin))
		res, err := m.Run("main")
		if err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		results[i] = res
	}
	dec, ref := results[0], results[1]
	if got, want := faultString(dec.Fault), faultString(ref.Fault); got != want {
		t.Errorf("fault diverged:\n  decoded:   %s\n  reference: %s", got, want)
	}
	if dec.Ret != ref.Ret {
		t.Errorf("return diverged: decoded %d, reference %d", dec.Ret, ref.Ret)
	}
	if !bytes.Equal(dec.Stdout, ref.Stdout) {
		t.Errorf("stdout diverged:\n  decoded:   %q\n  reference: %q", dec.Stdout, ref.Stdout)
	}
	if *dec.Counters != *ref.Counters {
		t.Errorf("counters diverged:\n  decoded:   %+v\n  reference: %+v", *dec.Counters, *ref.Counters)
	}
	if dec.SitesExecuted != ref.SitesExecuted {
		t.Errorf("sites executed diverged: decoded %d, reference %d", dec.SitesExecuted, ref.SitesExecuted)
	}
	if !reflect.DeepEqual(dec.Sites, ref.Sites) {
		t.Errorf("site tally diverged:\n  decoded:   %v\n  reference: %v", dec.Sites, ref.Sites)
	}
	checkTally(t, dec, armed)
}

// checkTally checks one run's per-site tally against its other
// figures: every hardening site of these modules is numbered, so the
// tally has one entry per executed site; a detection is one fault at
// one site, a clean run none; and cycles are charged exactly when the
// session arms attribution.
func checkTally(t *testing.T, res *vm.Result, armed bool) {
	t.Helper()
	if len(res.Sites) != res.SitesExecuted {
		t.Errorf("tally has %d sites, %d executed", len(res.Sites), res.SitesExecuted)
	}
	var faults int64
	for id, c := range res.Sites {
		faults += c.Faults
		if c.Execs == 0 || (c.Cycles > 0) != armed {
			t.Errorf("site %s = %+v (armed %v)", id, c, armed)
		}
	}
	detected := attack.Classify(res) == attack.VerdictDetected
	if detected && faults != 1 || res.Fault == nil && faults != 0 || faults > 1 {
		t.Errorf("tally counts %d faults for fault %s", faults, faultString(res.Fault))
	}
}

// TestEngineDiffWorkloads sweeps the full workload suite under every
// scheme (a 4-profile subset in -short mode).
func TestEngineDiffWorkloads(t *testing.T) {
	profiles := workload.Profiles()
	if testing.Short() {
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
				runEngines(t, prog.Mod, workload.Stdin(p), false)
			})
		}
	}
}

// TestEngineDiffAttacks sweeps the attack corpus — both the benign and
// the malicious input of every case — under every scheme, so engine
// parity is checked on faulting paths too (3 cases in -short mode).
// Each pair runs bare and again under an armed session.
func TestEngineDiffAttacks(t *testing.T) {
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
					runEngines(t, prog.Mod, input.data, false)
					runEngines(t, prog.Mod, input.data, true)
				})
			}
		}
	}
}
