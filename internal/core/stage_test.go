package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

// TestStagePanicIsKept: a harden stage that panics keeps the panic as
// its error, so every Build of the key returns it. The compile's
// analysis is marked done with no facts, which CPA's harden panics on.
func TestStagePanicIsKept(t *testing.T) {
	pl := NewPipeline()
	ce := pl.compile("panic", "int main() { return 0; }")
	if ce.err != nil {
		t.Fatal(ce.err)
	}
	ce.analysisOnce.Do(func() {})
	for i := 0; i < 2; i++ {
		_, err := pl.Build("panic", "int main() { return 0; }", SchemeCPA)
		var sp *StagePanic
		if !errors.As(err, &sp) || sp.Stage != "harden" || len(sp.Stack) == 0 {
			t.Fatalf("build %d: err = %v, want the harden stage's panic", i, err)
		}
	}
}

// TestAnalysisPanicIsKept: a compile whose analysis panicked keeps the
// panic, and every instrumenting harden of the compile and Analyze
// return it instead of hardening without facts.
func TestAnalysisPanicIsKept(t *testing.T) {
	const name, src = "analysis-panic", "int main() { char buf[8]; gets(buf); if (buf[0] == 'x') { return 1; } return 0; }"
	pl := NewPipeline()
	ce := pl.compile(name, src)
	if ce.err != nil {
		t.Fatal(ce.err)
	}
	mod, err := ir.DecodeModule(ce.enc)
	if err != nil {
		t.Fatal(err)
	}
	mod.Func("main").Entry().Instrs[0].ID = -1
	_, _, err = ce.analysis(name, mod)
	var kept *StagePanic
	if !errors.As(err, &kept) || kept.Stage != "analyze" || !strings.Contains(fmt.Sprint(kept.Value), "not numbered") {
		t.Fatalf("analysis of an unnumbered module: err = %v, want the analyze stage's not-numbered panic", err)
	}
	for _, s := range []Scheme{SchemeCPA, SchemePythia} {
		_, err := pl.Build(name, src, s)
		var sp *StagePanic
		if !errors.As(err, &sp) || sp != kept {
			t.Errorf("%v: Build = %v, want the analysis's panic", s, err)
		}
	}
	var sp *StagePanic
	if _, err := pl.Analyze(name, src); !errors.As(err, &sp) || sp != kept {
		t.Errorf("Analyze = %v, want the analysis's panic", err)
	}
	if _, err := pl.Build(name, src, SchemeDFI); err != nil {
		t.Errorf("dfi, which does not analyze: %v", err)
	}
}
