package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
)

// FuzzDecodeHardened: decodeHardened, and ir.DecodeModule of the
// payload it splits off, never panic on bytes a shared cache directory
// may hold, and an artifact it accepts re-frames to itself. The seeds
// in testdata/fuzz/hardened are the harden artifacts a cache-dir
// pipeline stores for the attack corpus under cpa, pythia and dfi
// (encodeHardened of each harden entry); each re-frames byte for byte
// and its payload decodes.
func FuzzDecodeHardened(f *testing.F) {
	paths, err := filepath.Glob("testdata/fuzz/hardened/*.harden")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no harden artifact seeds in testdata/fuzz/hardened: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		enc, prot, err := decodeHardened(raw)
		if err != nil {
			f.Fatalf("seed %s: %v", p, err)
		}
		if again, err := encodeHardened(enc, &prot); err != nil || !bytes.Equal(again, raw) {
			f.Fatalf("seed %s does not re-frame to itself (err %v)", p, err)
		}
		if _, err := ir.DecodeModule(enc); err != nil {
			f.Fatalf("seed %s: payload: %v", p, err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		enc, prot, err := decodeHardened(raw)
		if err != nil {
			return
		}
		ir.DecodeModule(enc)
		framed, err := encodeHardened(enc, &prot)
		if err != nil {
			t.Fatalf("re-framing an accepted artifact: %v", err)
		}
		enc2, prot2, err := decodeHardened(framed)
		if err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-framed artifact does not split back (err %v)", err)
		}
		if again, err := encodeHardened(enc2, &prot2); err != nil || !bytes.Equal(again, framed) {
			t.Fatalf("re-framing is not a fixed point (err %v)", err)
		}
	})
}
