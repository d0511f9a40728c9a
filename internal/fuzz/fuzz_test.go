package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// --- seed codec -------------------------------------------------------

func TestSeedCodecRoundTrip(t *testing.T) {
	for _, in := range [][]byte{[]byte("0 short\n"), []byte("a\x00\xffb"), {}} {
		enc := EncodeSeed(in)
		dec, err := DecodeSeed(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !bytes.Equal(dec, in) {
			t.Fatalf("roundtrip %q -> %q", in, dec)
		}
	}
}

func TestDecodeSeedRawPassthrough(t *testing.T) {
	raw := []byte("0 AAAA\n")
	dec, err := DecodeSeed(raw)
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("raw input must pass through verbatim: %q %v", dec, err)
	}
}

func TestDecodeSeedRejectsGarbageValue(t *testing.T) {
	if _, err := DecodeSeed([]byte(seedHeader + "\nint(7)\n")); err == nil {
		t.Fatal("unsupported value line must error")
	}
}

func TestExportSeeds(t *testing.T) {
	dir := t.TempDir()
	targets := QuickTargets()
	n, err := ExportSeeds(dir, targets)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(targets); n != want {
		t.Fatalf("exported %d files, want %d", n, want)
	}
	got, err := ReadSeedFile(filepath.Join(dir, "dfi-blindspot", "seed0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0 short\n" {
		t.Fatalf("seed0 = %q, want the benign input", got)
	}
}

// --- mutation engine --------------------------------------------------

func TestMutatorDeterministic(t *testing.T) {
	tgt := TargetByName("dfi-blindspot")
	dict := Dictionary(tgt)
	a, b := NewMutator(7), NewMutator(7)
	base := []byte("0 short\n")
	donor := []byte("0 AAAA\n")
	for i := 0; i < 200; i++ {
		ma, mb := a.Mutate(base, donor, dict), b.Mutate(base, donor, dict)
		if !bytes.Equal(ma, mb) {
			t.Fatalf("mutant %d diverged: %q vs %q", i, ma, mb)
		}
		if len(ma) > maxInputLen {
			t.Fatalf("mutant %d exceeds cap: %d bytes", i, len(ma))
		}
	}
}

func TestDictionaryHarvest(t *testing.T) {
	tgt := TargetByName("dfi-blindspot")
	dict := Dictionary(tgt)
	want := map[string]bool{"GRANTED\n": false, "0": false, "short": false}
	for _, tok := range dict {
		if _, ok := want[string(tok)]; ok {
			want[string(tok)] = true
		}
	}
	for tok, seen := range want {
		if !seen {
			t.Errorf("dictionary is missing token %q (have %q)", tok, dict)
		}
	}
	again := Dictionary(tgt)
	if !reflect.DeepEqual(dict, again) {
		t.Fatal("dictionary order is not deterministic")
	}
}

// --- the loop: determinism across worker counts -----------------------

func fuzzQuick(t *testing.T, parallel int) *Result {
	t.Helper()
	res, err := Run(QuickTargets(), Options{Seed: 1, Execs: 200, Parallel: parallel, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func findingKeys(res *Result) []string {
	keys := make([]string, len(res.Findings))
	for i, fd := range res.Findings {
		keys[i] = fd.Key()
	}
	return keys
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	a := fuzzQuick(t, 1)
	b := fuzzQuick(t, 4)
	if a.Digest != b.Digest {
		t.Fatalf("corpus digests diverged: %#x vs %#x", a.Digest, b.Digest)
	}
	if a.Execs != b.Execs || a.Corpus != b.Corpus || a.Edges != b.Edges || a.Rounds != b.Rounds {
		t.Fatalf("run shape diverged: %+v vs %+v", a, b)
	}
	ka, kb := findingKeys(a), findingKeys(b)
	if !reflect.DeepEqual(ka, kb) {
		t.Fatalf("finding keys diverged: %v vs %v", ka, kb)
	}
	for i := range a.Findings {
		if !bytes.Equal(a.Findings[i].Input, b.Findings[i].Input) {
			t.Fatalf("finding %s reproducer diverged: %q vs %q",
				ka[i], a.Findings[i].Input, b.Findings[i].Input)
		}
	}
}

func TestSeedRoundFindsTheCorpusAttacks(t *testing.T) {
	// The malicious seeds alone must already open the DFI bypass — the
	// paper's pointer-arithmetic blindspot — during round 0.
	res := fuzzQuick(t, 0)
	keys := findingKeys(res)
	has := false
	for _, k := range keys {
		if k == "bypass/dfi-blindspot/dfi" {
			has = true
		}
	}
	if !has {
		t.Fatalf("expected bypass/dfi-blindspot/dfi among findings, got %v", keys)
	}
	if res.Edges == 0 || res.Corpus == 0 {
		t.Fatalf("coverage feedback is dead: %+v", res)
	}
}

// --- the headline property: rediscovery from benign seeds only --------

// TestRediscoversDFIBypassFromBenignSeeds proves the mutation engine
// finds the DFI pointer-arithmetic bypass rather than replaying the
// hand-written malicious input: only the benign seed is planted, and
// the bypass must still surface within the exec budget.
func TestRediscoversDFIBypassFromBenignSeeds(t *testing.T) {
	tgt := TargetByName("dfi-blindspot")
	res, err := Run([]Target{*tgt}, Options{
		Seed: 1, Execs: rediscoveryExecs, Batch: 16, BenignSeedsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bypass *Finding
	for _, fd := range res.Findings {
		if fd.Key() == "bypass/dfi-blindspot/dfi" {
			bypass = fd
		}
	}
	if bypass == nil {
		t.Fatalf("bypass not rediscovered in %d execs; findings: %v", res.Execs, findingKeys(res))
	}

	// The minimized reproducer must replay to the same class on a fresh
	// oracle, and Pythia must detect the very input DFI waves through.
	outs, err := Replay(tgt, bypass.Input, false)
	if err != nil {
		t.Fatal(err)
	}
	var dfiClass, pythiaVerdict string
	for _, o := range outs {
		switch o.Scheme.String() {
		case "dfi":
			dfiClass = o.Class
		case "pythia":
			pythiaVerdict = o.Verdict
		}
	}
	if dfiClass != classBypass {
		t.Fatalf("minimized reproducer does not replay as a DFI bypass: %+v", outs)
	}
	if pythiaVerdict != "detected" {
		t.Fatalf("pythia should detect the reproducer DFI misses, got %q", pythiaVerdict)
	}
	if bypass.Forensics == "" {
		t.Fatal("triage attached no forensics although a scheme detects the input")
	}
}

// rediscoveryExecs is the budget for the benign-seeds-only rediscovery;
// kept as a constant so the CI smoke budget can reference the same
// order of magnitude.
const rediscoveryExecs = 1500

// --- minimizer --------------------------------------------------------

func TestMinimizeShrinksAndStaysStable(t *testing.T) {
	ps, err := buildPrograms(TargetByName("dfi-blindspot"))
	if err != nil {
		t.Fatal(err)
	}
	// The scheme index of dfi in the oracle's order.
	dfiIdx := len(schemes) - 1
	if schemes[dfiIdx].String() != "dfi" {
		t.Fatalf("scheme order changed; fix the test: %v", schemes)
	}
	pred := func(cand []byte) bool {
		c, err := ps.pair(dfiIdx, cand)
		return err == nil && c == classBypass
	}
	// A deliberately bloated bypass input.
	fat := []byte("0 AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA junk junk\n")
	if !pred(fat) {
		t.Fatal("the fat input must be a bypass to begin with")
	}
	min1 := Minimize(fat, pred, minimizeBudget)
	min2 := Minimize(fat, pred, minimizeBudget)
	if !bytes.Equal(min1, min2) {
		t.Fatalf("minimizer is not deterministic: %q vs %q", min1, min2)
	}
	if len(min1) >= len(fat) {
		t.Fatalf("minimizer failed to shrink: %d -> %d bytes", len(fat), len(min1))
	}
	if !pred(min1) {
		t.Fatalf("minimized input %q no longer reproduces", min1)
	}
}

// --- triage artifacts -------------------------------------------------

func TestWriteFindingAndLoadKnown(t *testing.T) {
	res := fuzzQuick(t, 0)
	if len(res.Findings) == 0 {
		t.Fatal("quick run produced no findings to persist")
	}
	fd := res.Findings[0]
	dir := t.TempDir()
	fdir, err := WriteFinding(dir, fd)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ReadSeedFile(filepath.Join(fdir, "input"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, fd.Input) {
		t.Fatalf("persisted input %q != finding input %q", in, fd.Input)
	}
	cs, err := os.ReadFile(filepath.Join(fdir, "case.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(cs, []byte("Malicious:")) || !bytes.Contains(cs, []byte("Source:")) {
		t.Fatalf("case candidate is missing fields:\n%s", cs)
	}

	knownPath := filepath.Join(dir, "known.txt")
	body := "# expected findings\n\n" + fd.Key() + "\n"
	if err := os.WriteFile(knownPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	known, err := LoadKnown(knownPath)
	if err != nil {
		t.Fatal(err)
	}
	if !known[fd.Key()] || len(known) != 1 {
		t.Fatalf("LoadKnown parsed %v", known)
	}
}
