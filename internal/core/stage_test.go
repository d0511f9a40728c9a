package core

import (
	"errors"
	"testing"
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
