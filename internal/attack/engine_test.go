package attack_test

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/vm"
)

func TestCorpusWellFormed(t *testing.T) {
	cases := attack.Corpus()
	if len(cases) < 7 {
		t.Fatalf("corpus has %d cases, want >= 7", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		names[c.Name] = true
		if c.Source == "" || c.Benign == "" || c.Malicious == "" || c.Kind == "" {
			t.Fatalf("case %q incomplete", c.Name)
		}
	}
	// The three motivating listings must all be present.
	for _, want := range []string{"privesc-string-overflow", "proftpd-sreplace", "pointer-dualism"} {
		if !names[want] {
			t.Fatalf("missing motivating listing %q", want)
		}
	}
}

func TestCaseByName(t *testing.T) {
	if attack.CaseByName("nope") != nil {
		t.Fatal("unknown case must be nil")
	}
	c := attack.CaseByName("pointer-dualism")
	if c == nil || c.Kind != "pointer-misdirection" {
		t.Fatalf("lookup broken: %+v", c)
	}
	// Mutating the returned copy must not corrupt the corpus.
	c.Malicious = "clobbered"
	if attack.CaseByName("pointer-dualism").Malicious == "clobbered" {
		t.Fatal("CaseByName must return a copy")
	}
}

func TestBentConvention(t *testing.T) {
	if !attack.Bent([]byte("access GRANTED\n"), 0) {
		t.Fatal("GRANTED marker not recognized")
	}
	if !attack.Bent(nil, 99) {
		t.Fatal("return-99 convention not recognized")
	}
	if attack.Bent([]byte("normal\n"), 0) {
		t.Fatal("false bent")
	}
}

func TestVerdictStrings(t *testing.T) {
	pairs := map[attack.Verdict]string{
		attack.VerdictClean:    "clean",
		attack.VerdictBent:     "bent",
		attack.VerdictDetected: "detected",
		attack.VerdictCrashed:  "crashed",
	}
	for v, s := range pairs {
		if v.String() != s {
			t.Fatalf("%v.String() = %q", int(v), v.String())
		}
	}
}

func TestOutcomeReportsDetectingFault(t *testing.T) {
	c := attack.CaseByName("scanf-scalar-taint")
	o, err := attack.Run(c, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if o.Attack != attack.VerdictDetected {
		t.Fatalf("attack = %v", o.Attack)
	}
	if o.Fault == nil || o.Fault.Kind != vm.FaultCanary {
		t.Fatalf("fault = %v, want the canary mechanism", o.Fault)
	}
	if o.PAUsed == 0 {
		t.Fatal("detected run must have executed PA instructions")
	}
}

// TestForensicsOnEveryDetection: every machine the attack engine runs
// is armed with a flight recorder, so every detected fault across the
// corpus must carry a populated forensic report — non-empty window,
// the detecting site, and the scheme that was running.
func TestForensicsOnEveryDetection(t *testing.T) {
	detections := 0
	for _, c := range attack.Corpus() {
		c := c
		for _, s := range core.Schemes {
			o, err := attack.Run(&c, s)
			if err != nil {
				t.Fatal(err)
			}
			if o.Attack != attack.VerdictDetected {
				continue
			}
			detections++
			r := o.Fault.Forensics
			if r == nil {
				t.Errorf("%s/%v: detected fault has no forensics", c.Name, s)
				continue
			}
			if len(r.Window) == 0 {
				t.Errorf("%s/%v: flight window is empty", c.Name, s)
			}
			if r.Kind != o.Fault.Kind.String() || r.Func != o.Fault.Func {
				t.Errorf("%s/%v: report disagrees with fault: %+v vs %+v", c.Name, s, r, o.Fault)
			}
			if want := s.String(); r.Scheme != want {
				t.Errorf("%s/%v: report scheme = %q, want %q", c.Name, s, r.Scheme, want)
			}
		}
	}
	if detections == 0 {
		t.Fatal("corpus produced no detections at all")
	}
}

// TestDetectionPrecedesBend is the timing property: when a defense
// detects, the privileged path's output must NOT have been produced.
func TestDetectionPrecedesBend(t *testing.T) {
	for _, c := range attack.Corpus() {
		c := c
		for _, s := range []core.Scheme{core.SchemeCPA, core.SchemePythia} {
			prog, err := core.Build(c.Name, c.Source, s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Run(c.Malicious)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fault != nil && attack.Bent(res.Stdout, 0) {
				t.Fatalf("%s/%v: GRANTED printed before the fault — detection came too late", c.Name, s)
			}
		}
	}
}

// TestHeapIsolationPreventsRatherThanDetects documents the Pythia
// semantics for the heap case: relocation makes the overflow harmless.
func TestHeapIsolationPreventsRatherThanDetects(t *testing.T) {
	c := attack.CaseByName("heap-overflow")
	o, err := attack.Run(c, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if o.Attack == attack.VerdictBent {
		t.Fatal("isolation failed: the heap overflow still bent the branch")
	}
	// Either the run stays clean (pure prevention) or a check fires;
	// both count as a defended attack.
}
