package ir_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/workload"
)

// hardenedModule compiles and instruments a program that exercises the
// codec's full surface: struct types, arrays, globals with initializers,
// phi nodes, calls, channels, and — through the Pythia pass — stack
// plans, canaries, sealed globals, and instruction metadata.
func hardenedModule(t *testing.T) *ir.Module { return hardenedModuleWith(t, core.SchemePythia) }

func hardenedModuleWith(t *testing.T, scheme core.Scheme) *ir.Module {
	t.Helper()
	mod, err := minic.Compile("ser", `
struct point { int x; int y; };
int scale(int v) { return v * 3; }
int main() {
	char buf[24];
	struct point p;
	fgets(buf, 24);
	p.x = buf[0];
	p.y = scale(p.x);
	long acc = 0;
	for (int i = 0; buf[i] != 0; i++) {
		if (buf[i] > 'm') { acc = acc + p.y; } else { acc = acc + p.x; }
	}
	printf("acc=%d\n", acc);
	return acc % 113;
}`)
	if err != nil {
		t.Fatal(err)
	}
	irpass.Optimize(mod)
	if _, err := core.Protect(mod, scheme); err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestSerializeRoundTrip: encode → decode must reproduce the module
// exactly (textual form) and the codec must be deterministic
// (re-encoding the decode yields identical bytes).
func TestSerializeRoundTrip(t *testing.T) {
	mod := hardenedModule(t)
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() != mod.String() {
		t.Fatal("decode does not print identically to the original")
	}
	enc2, err := ir.EncodeModule(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("codec is not deterministic: re-encoding the decode changed bytes")
	}
}

// TestSerializePreservesUnprintedState covers what the textual printer
// does NOT carry: stack plans, function attributes, and sealed globals
// must survive the binary round trip.
func TestSerializePreservesUnprintedState(t *testing.T) {
	mod := hardenedModule(t)
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	plans, attrs := 0, 0
	for _, f := range mod.Defined() {
		g := dec.Func(f.FName)
		if g == nil {
			t.Fatalf("decode lost @%s", f.FName)
		}
		if f.Plan != nil {
			plans++
			if g.Plan == nil {
				t.Fatalf("@%s: stack plan lost", f.FName)
			}
			if g.Plan.Size != f.Plan.Size || len(g.Plan.Slots) != len(f.Plan.Slots) {
				t.Fatalf("@%s: plan shape changed", f.FName)
			}
			for i, s := range f.Plan.Slots {
				d := g.Plan.Slots[i]
				if d.Offset != s.Offset || d.Size != s.Size || d.Canary != s.Canary || d.Vuln != s.Vuln {
					t.Fatalf("@%s: slot %d changed: %+v vs %+v", f.FName, i, d, s)
				}
				if (d.Alloca == nil) != (s.Alloca == nil) {
					t.Fatalf("@%s: slot %d alloca link lost", f.FName, i)
				}
			}
		}
		for k, v := range f.Attrs {
			attrs++
			if g.Attrs[k] != v {
				t.Fatalf("@%s: attr %q lost", f.FName, k)
			}
		}
	}
	if plans == 0 {
		t.Fatal("test module has no stack plans — not exercising the codec")
	}
	_ = attrs

	// Sealed globals (the CPA pass's [value|PAC] pairs) are not printed
	// either; assert the flag survives on a hand-sealed global.
	sm := ir.NewModule("sealed")
	sm.NewGlobal("cfg", ir.ArrayOf(ir.I64, 2), nil).Sealed = true
	encS, err := ir.EncodeModule(sm)
	if err != nil {
		t.Fatal(err)
	}
	decS, err := ir.DecodeModule(encS)
	if err != nil {
		t.Fatal(err)
	}
	if len(decS.Globals) != 1 || !decS.Globals[0].Sealed {
		t.Fatal("global seal flag lost in the round trip")
	}
}

// TestDecodeRejectsTruncation feeds every proper prefix of a valid
// encoding to the decoder: none may panic, all must error.
func TestDecodeRejectsTruncation(t *testing.T) {
	mod := hardenedModule(t)
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(enc) > 4096 {
		step = len(enc) / 4096
	}
	for i := 0; i < len(enc); i += step {
		if _, err := ir.DecodeModule(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

// TestDecodeRejectsBadHeader covers magic and version checks.
func TestDecodeRejectsBadHeader(t *testing.T) {
	mod := hardenedModule(t)
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := ir.DecodeModule(bad); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	bad = append([]byte(nil), enc...)
	bad[4] ^= 0xff // inside the version field
	if _, err := ir.DecodeModule(bad); err == nil {
		t.Fatal("unknown version must be rejected")
	}
	if _, err := ir.DecodeModule(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

// TestCloneIsDeepAndIndependent: the clone prints and encodes
// identically, and mutating it leaves the original untouched.
func TestCloneIsDeepAndIndependent(t *testing.T) {
	mod := hardenedModule(t)
	want := mod.String()
	cl := mod.Clone()
	if cl.String() != want {
		t.Fatal("clone does not print identically")
	}
	encA, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	encB, err := ir.EncodeModule(cl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encA, encB) {
		t.Fatal("clone encodes differently")
	}
	// Mutate the clone structurally: rename an instruction and flip a
	// global's first init byte.
	for _, f := range cl.Defined() {
		f.Blocks[0].Instrs[0].Nam = f.Blocks[0].Instrs[0].Nam + "_mut"
		break
	}
	for _, g := range cl.Globals {
		if len(g.Init) > 0 {
			g.Init[0] ^= 0xff
			break
		}
	}
	if mod.String() != want {
		t.Fatal("mutating the clone changed the original")
	}
}

// TestCloneUnnumberedPanics: Clone is a decode of the encoding, so a
// module the encoder refuses panics, naming the module.
func TestCloneUnnumberedPanics(t *testing.T) {
	m, f := buildRet(t)
	m.Name = "unnumbered-clone"
	zero := ir.ConstInt(ir.I64, 0)
	f.Entry().InsertBefore(ir.NewInstr(ir.OpAdd, f.GenName("n"), ir.I64, zero, zero), f.Entry().Instrs[0])
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "unnumbered-clone") {
			t.Fatalf("Clone panicked with %v, want a message naming the module", r)
		}
	}()
	m.Clone()
}

// decodeSeeds lists the decoder's checked-in seeds: the encodings
// Pipeline.Build gives the quick profiles and the attack corpus under
// the four headline schemes, and unnumbered.pyir, a module whose
// instructions were never renumbered, as an encoder that did not check
// the numbering wrote it.
func decodeSeeds(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob("testdata/decode/*.pyir")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no decoder seeds in testdata/decode: %v", err)
	}
	return paths
}

// FuzzDecodeModule: decoding never panics, and a stream it accepts is
// a numbered module whose encoding decodes and re-encodes to itself.
// The seeds, which EncodeModule wrote, re-encode byte for byte.
func FuzzDecodeModule(f *testing.F) {
	for _, p := range decodeSeeds(f) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		unnumbered := filepath.Base(p) == "unnumbered.pyir"
		mod, err := ir.DecodeModule(data)
		if (err == nil) == unnumbered {
			f.Fatalf("seed %s: decode error %v", p, err)
		}
		if !unnumbered {
			if enc, err := ir.EncodeModule(mod); err != nil || !bytes.Equal(enc, data) {
				f.Fatalf("seed %s does not re-encode to itself (err %v)", p, err)
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecoded(t, data) })
}

// checkDecoded decodes data and, if it is accepted, checks that every
// function is numbered and that re-encoding reaches a fixed point, and
// returns the re-encoding (nil when data is refused). A stream
// EncodeModule would not write (an overlong varint, a bool byte of 2)
// may decode to a module that re-encodes to other bytes, but those
// bytes must then be stable.
func checkDecoded(t *testing.T, data []byte) []byte {
	t.Helper()
	mod, err := ir.DecodeModule(data)
	if err != nil {
		return nil
	}
	for _, fn := range mod.Funcs {
		id := 0
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.ID != id {
					t.Fatalf("@%s: decoded instruction %d has id %d", fn.FName, id, in.ID)
				}
				id++
			}
		}
	}
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatalf("re-encoding an accepted stream: %v", err)
	}
	again, err := ir.DecodeModule(enc)
	if err != nil {
		t.Fatalf("re-encoded stream does not decode: %v", err)
	}
	if enc2, err := ir.EncodeModule(again); err != nil || !bytes.Equal(enc2, enc) {
		t.Fatalf("re-encoding is not a fixed point (err %v)", err)
	}
	return enc
}

// TestDecodeRejectsOutOfPlaceID: a stream whose stored instruction ids
// are not their block-order positions is refused, so every stage may
// index by Instr.ID on a module decoded from a shared cache directory.
func TestDecodeRejectsOutOfPlaceID(t *testing.T) {
	data, err := os.ReadFile("testdata/decode/unnumbered.pyir")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.DecodeModule(data); err == nil || !strings.Contains(err.Error(), "stores id") {
		t.Fatalf("DecodeModule = %v, want an out-of-place id error", err)
	}
}

// phiStream hand-builds the encoding of a module with one function,
//
//	entry: br loop
//	loop:  %p = phi i64 [0, entry], [<instruction ref>, loop]
//	       %n = add i64 %p, 1
//	       br loop
//
// whose phi's second edge names instruction ref: 2 is %n, a forward
// reference, and 4 or more lies past the function's end.
func phiStream(ref uint64) []byte {
	b := []byte("PYIR")
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	i := func(v int64) { b = binary.AppendVarint(b, v) }
	str := func(s string) { u(uint64(len(s))); b = append(b, s...) }
	const tFunc, tI64, tVoid = 0, 1, 2 // the type table below
	u(ir.SerialVersion)
	str("fwd")
	u(3)
	b = append(b, 5, 1, 0) // kinds: func, int, void
	u(tI64)                // func i64(): return type,
	u(0)                   // no params,
	b = append(b, 0)       // not variadic
	u(64)                  // i64
	u(0)                   // no globals
	u(1)                   // one function, @f of type func i64()
	str("f")
	u(tFunc)
	i(0) // channel
	u(0) // params
	u(0) // attrs
	u(0) // next name
	u(0) // next block
	// instr writes one instruction with no alloca type, predicate,
	// callee, def-set or metadata; refs are encoded value references.
	instr := func(op ir.Op, name string, typ uint64, args [][]byte, succs []uint64, edges [][]byte, id int64) {
		i(int64(op))
		str(name)
		u(typ)
		u(uint64(len(args)))
		for _, a := range args {
			b = append(b, a...)
		}
		b = append(b, 0)
		i(0)
		u(uint64(len(succs)))
		for _, s := range succs {
			u(s)
		}
		b = append(b, 0)
		u(uint64(len(edges)))
		for _, e := range edges {
			b = append(b, e...)
		}
		i(0)
		u(0)
		u(0)
		i(id)
	}
	const vtConst, vtInstr = 0, 3
	constRef := func(v int64) []byte { return binary.AppendVarint([]byte{vtConst, tI64}, v) }
	instrRef := func(id uint64) []byte { return binary.AppendUvarint([]byte{vtInstr}, id) }
	edge := func(ref []byte, pred uint64) []byte { return binary.AppendUvarint(ref, pred) }
	u(2) // blocks
	str("entry")
	u(1)
	instr(ir.OpBr, "", tVoid, nil, []uint64{1}, nil, 0)
	str("loop")
	u(3)
	instr(ir.OpPhi, "p", tI64, nil, nil, [][]byte{edge(constRef(0), 0), edge(instrRef(ref), 1)}, 1)
	instr(ir.OpAdd, "n", tI64, [][]byte{instrRef(1), constRef(1)}, nil, nil, 2)
	instr(ir.OpBr, "", tVoid, nil, []uint64{1}, nil, 3)
	b = append(b, 0) // no stack plan
	return b
}

// TestDecodeForwardPhiReference: a phi naming a later instruction
// decodes onto that instruction itself, not onto a copy or a shell left
// unfilled.
func TestDecodeForwardPhiReference(t *testing.T) {
	mod, err := ir.DecodeModule(phiStream(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	loop := mod.Func("f").Blocks[1]
	phi, add := loop.Instrs[0], loop.Instrs[1]
	if phi.Incoming[1].Val != ir.Value(add) || add.Args[0] != ir.Value(phi) {
		t.Fatalf("phi and add do not reference each other:\n%s", mod.Func("f"))
	}
	if add.Op != ir.OpAdd || add.Block != loop || add.ID != 2 {
		t.Fatalf("forward-referenced instruction decoded as %v in %s, id %d", add, add.Block.Name, add.ID)
	}
}

// TestDecodeRejectsReferencePastEnd: a phi naming an instruction past
// its function's last is a decode error the decoder reports itself,
// whether the name lies within the bytes left or beyond them.
func TestDecodeRejectsReferencePastEnd(t *testing.T) {
	for _, ref := range []uint64{4, 1000} {
		_, err := ir.DecodeModule(phiStream(ref))
		if err == nil || !strings.Contains(err.Error(), "past its end") {
			t.Errorf("ref %d: DecodeModule = %v, want a past-the-end error", ref, err)
		}
	}
}

// TestEncodeRejectsUnnumbered: the encoder writes references by
// Instr.ID, so it refuses a function whose ids are not block-order
// positions instead of writing wrong references.
func TestEncodeRejectsUnnumbered(t *testing.T) {
	m, f := buildRet(t)
	zero := ir.ConstInt(ir.I64, 0)
	f.Entry().InsertBefore(ir.NewInstr(ir.OpAdd, f.GenName("n"), ir.I64, zero, zero), f.Entry().Instrs[0])
	if _, err := ir.EncodeModule(m); err == nil || !strings.Contains(err.Error(), "not numbered") {
		t.Fatalf("EncodeModule = %v, want a numbering error", err)
	}
	f.Renumber()
	if _, err := ir.EncodeModule(m); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMutantsReencodeStably substitutes bytes of small seeds one
// at a time and checks every mutant the decoder accepts as the fuzz
// target does: the fuzz property, replayed over a fixed neighbourhood.
// It also pins which mutants the decoder accepts and what each
// re-encodes to, as a count and a digest, so any change in what the
// decoder accepts, or in the module it decodes, fails it.
func TestDecodeMutantsReencodeStably(t *testing.T) {
	const wantTried, wantAccepted, wantDigest = 12083, 6186, "e8029d32ba543fbb"
	h := sha256.New()
	tried, accepted := 0, 0
	for _, name := range []string{"heap-overflow.pythia.pyir", "scanf-scalar-taint.dfi.pyir"} {
		data, err := os.ReadFile(filepath.Join("testdata/decode", name))
		if err != nil {
			t.Fatal(err)
		}
		for i, orig := range data {
			for _, v := range []byte{2, 0x80, 0xff, orig ^ 1} {
				if v == orig {
					continue
				}
				mut := append([]byte(nil), data...)
				mut[i] = v
				tried++
				if enc := checkDecoded(t, mut); enc != nil {
					accepted++
					fmt.Fprintf(h, "%s %d %d %x\n", name, i, v, sha256.Sum256(enc))
				}
			}
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]
	if tried != wantTried || accepted != wantAccepted || digest != wantDigest {
		t.Fatalf("accepted %d of %d mutants, digest %s; want %d of %d, digest %s",
			accepted, tried, digest, wantAccepted, wantTried, wantDigest)
	}
}

// benchEncoding builds the codec benchmarks' hardened mid-size module,
// 523.xalancbmk_r under Pythia, and its encoding.
func benchEncoding(b *testing.B) (*ir.Module, []byte) {
	prog, err := workload.Build(workload.ProfileByName("523.xalancbmk_r"), core.SchemePythia)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := ir.EncodeModule(prog.Mod)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Mod, enc
}

func BenchmarkEncodeModule(b *testing.B) {
	mod, enc := benchEncoding(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.EncodeModule(mod); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeModule(b *testing.B) {
	_, enc := benchEncoding(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.DecodeModule(enc); err != nil {
			b.Fatal(err)
		}
	}
}
