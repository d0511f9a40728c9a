package irpass_test

import (
	"bytes"
	"testing"

	"repro/internal/attack"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
)

// optimizedEncoding compiles src and optimizes it as the front end does.
// It reports false when minic refuses the source, and fails the test
// when the optimized module does not verify or encode.
func optimizedEncoding(t *testing.T, src string) ([]byte, bool) {
	t.Helper()
	mod, err := minic.Compile("fuzz", src)
	if err != nil {
		return nil, false
	}
	irpass.Optimize(mod)
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("optimized module does not verify: %v", err)
	}
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatalf("optimized module does not encode: %v", err)
	}
	return enc, true
}

// FuzzCompile: the front end either refuses a source or yields a module
// that verifies, encodes, decodes and re-encodes byte for byte, and
// encodes the same on a second compile. The seeds are the attack
// corpus's sources and the optimizer corpus, which holds a program whose
// joins merge sibling arms, one that reads a promoted local after a
// return, and one whose code after a return branches back to a loop head;
// testdata/fuzz/FuzzCompile holds the sources it has found that crashed
// minic.
func FuzzCompile(f *testing.F) {
	for _, c := range attack.Corpus() {
		f.Add(c.Source)
	}
	for _, c := range optCorpus {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		enc, ok := optimizedEncoding(t, src)
		if !ok {
			return
		}
		mod, err := ir.DecodeModule(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if re, err := ir.EncodeModule(mod); err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("decoded module does not re-encode to its bytes (err %v)", err)
		}
		if again, _ := optimizedEncoding(t, src); !bytes.Equal(again, enc) {
			t.Fatal("a second compile encodes differently")
		}
	})
}
