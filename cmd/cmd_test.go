// Package cmd_test smoke-tests the CLIs end to end through
// `go run`, covering the user-facing surface the README documents.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// builtBinary compiles the named cmd package once per test process and
// returns the binary path — for tests that assert on exit codes, which
// `go run` flattens to 1.
var (
	binMu    sync.Mutex
	binPaths = map[string]string{}
)

func builtBinary(t *testing.T, pkg string) string {
	t.Helper()
	binMu.Lock()
	defer binMu.Unlock()
	if p, ok := binPaths[pkg]; ok {
		return p
	}
	dir, err := os.MkdirTemp("", "pythia-cmd-test")
	if err != nil {
		t.Fatal(err)
	}
	bin := dir + "/" + pkg
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+pkg)
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	binPaths[pkg] = bin
	return bin
}

// expectExit2 runs the built binary with args and asserts the
// flag-validation convention: exit status 2, the diagnostic, a usage
// dump, and no experiment output. It returns the combined output.
func expectExit2(t *testing.T, bin string, wantDiag string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	exit, isExit := err.(*exec.ExitError)
	if !isExit || exit.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), wantDiag) || !strings.Contains(string(out), "Usage") {
		t.Fatalf("missing diagnostic %q or usage:\n%s", wantDiag, out)
	}
	if strings.Contains(string(out), "E[tries]") {
		t.Fatalf("experiment must not run under invalid flags:\n%s", out)
	}
	return string(out)
}

func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		// pythiac exits 1 on a detected fault — that is a success for
		// the attack flows; callers check the output instead.
		if _, isExit := err.(*exec.ExitError); !isExit {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
	}
	return string(out)
}

// runStdout is run with stdout and stderr kept separate, for tests that
// compare stdout byte-for-byte against a golden file.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if _, isExit := err.(*exec.ExitError); !isExit {
			t.Fatalf("go run %v: %v\n%s", args, err, stderr.String())
		}
	}
	return stdout.String()
}

func TestPythiacVanillaBends(t *testing.T) {
	out := run(t, "./cmd/pythiac", "-scheme", "vanilla", "-stdin", "testdata/attack.txt", "testdata/demo.c")
	if !strings.Contains(out, "access: ADMIN") {
		t.Fatalf("vanilla attack should bend:\n%s", out)
	}
}

func TestPythiacPythiaDetects(t *testing.T) {
	out := run(t, "./cmd/pythiac", "-scheme", "pythia", "-stdin", "testdata/attack.txt", "testdata/demo.c")
	if !strings.Contains(out, "FAULT") || !strings.Contains(out, "canary") {
		t.Fatalf("pythia should canary-fault:\n%s", out)
	}
	if strings.Contains(out, "ADMIN") {
		t.Fatalf("detection must precede the bend:\n%s", out)
	}
}

func TestPythiacBenignClean(t *testing.T) {
	out := run(t, "./cmd/pythiac", "-scheme", "pythia", "-stdin", "testdata/benign.txt", "testdata/demo.c")
	if !strings.Contains(out, "access: user alice") || strings.Contains(out, "FAULT") {
		t.Fatalf("benign run must be clean:\n%s", out)
	}
}

func TestPythiacAnalyze(t *testing.T) {
	out := run(t, "./cmd/pythiac", "-analyze", "testdata/demo.c")
	for _, want := range []string{"input channels", "memory roots", "branches", "Eq.1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis output missing %q:\n%s", want, out)
		}
	}
}

// TestPythiacAnalyzeEmittedIR: the printed IR carries each function's
// input-channel kind, so analyzing pythiac's own vanilla -emit-ir output
// reports what analyzing the source reports, apart from the module name.
func TestPythiacAnalyzeEmittedIR(t *testing.T) {
	irFile := filepath.Join(t.TempDir(), "demo.ir")
	emitted := runStdout(t, "./cmd/pythiac", "-scheme", "vanilla", "-emit-ir", "testdata/demo.c")
	if err := os.WriteFile(irFile, []byte(emitted), 0o644); err != nil {
		t.Fatal(err)
	}
	fromC := runStdout(t, "./cmd/pythiac", "-analyze", "testdata/demo.c")
	fromIR := runStdout(t, "./cmd/pythiac", "-analyze", irFile)
	_, c, _ := strings.Cut(fromC, ":")
	_, i, _ := strings.Cut(fromIR, ":")
	if c != i || !strings.Contains(c, "input channels: 3 sites") {
		t.Fatalf("-analyze on the source:\n%s\non its emitted IR:\n%s", fromC, fromIR)
	}
}

func TestPythiacEmitIR(t *testing.T) {
	out := run(t, "./cmd/pythiac", "-scheme", "pythia", "-emit-ir", "testdata/demo.c")
	for _, want := range []string{"define i64 @main", "canary.set", "canary.check"} {
		if !strings.Contains(out, want) {
			t.Fatalf("emitted IR missing %q", want)
		}
	}
}

func TestPythiaAttackList(t *testing.T) {
	out := run(t, "./cmd/pythia-attack", "-list")
	for _, want := range []string{"privesc-string-overflow", "pointer-dualism", "dfi-blindspot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("case list missing %q:\n%s", want, out)
		}
	}
}

func TestPythiaAttackSingleCase(t *testing.T) {
	out := run(t, "./cmd/pythia-attack", "-case", "scanf-scalar-taint", "-scheme", "pythia")
	if !strings.Contains(out, "detected") {
		t.Fatalf("expected detection row:\n%s", out)
	}
}

func TestPythiaBenchList(t *testing.T) {
	out := run(t, "./cmd/pythia-bench", "-list")
	for _, want := range []string{"fig4a", "fig7b", "bruteforce", "fieldcanary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment list missing %q:\n%s", want, out)
		}
	}
}

func TestPythiaBenchSingleExperiment(t *testing.T) {
	out := run(t, "./cmd/pythia-bench", "-experiment", "bruteforce")
	if !strings.Contains(out, "E[tries]") || !strings.Contains(out, "16777216") {
		t.Fatalf("bruteforce table malformed:\n%s", out)
	}
}

func TestPythiaBenchMarkdownFormat(t *testing.T) {
	out := run(t, "./cmd/pythia-bench", "-experiment", "bruteforce", "-format", "markdown")
	if !strings.Contains(out, "| quantity | value |") {
		t.Fatalf("markdown format broken:\n%s", out)
	}
}

// TestPythiaBenchRejectsUnknownFormat: an invalid -format must fail fast
// with exit status 2 and a usage message, not fall through to ascii.
// Built and invoked directly because `go run` maps every child failure
// to its own exit status 1.
func TestPythiaBenchRejectsUnknownFormat(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), `invalid -format "bogus"`,
		"-experiment", "bruteforce", "-format", "bogus")
}

// TestPythiaBenchRejectsBadRepeat / UnwritableSave /
// CompareWithoutBaseline: every continuous-benchmarking flag error must
// follow the -format convention — descriptive diagnostic, usage, exit 2,
// nothing executed.
func TestPythiaBenchRejectsBadRepeat(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), "invalid -repeat 0",
		"-experiment", "bruteforce", "-repeat", "0")
}

func TestPythiaBenchRejectsUnwritableSave(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), "unwritable -save path",
		"-experiment", "bruteforce", "-save", "/nonexistent-dir-pythia/x.json")
}

// TestCLIsRejectUnwritableOutputs: every CLI checks its -journal,
// -trace and -metrics paths before any work runs, so a bad one is a
// usage error (exit 2) naming its flag rather than a failure after a
// full run.
func TestCLIsRejectUnwritableOutputs(t *testing.T) {
	const bad = "/nonexistent-dir-pythia/out"
	work := map[string][]string{
		"pythia-bench":  {"-experiment", "bruteforce"},
		"pythiac":       {"-stdin", "testdata/benign.txt", "testdata/demo.c"},
		"pythia-attack": {"-case", "scanf-scalar-taint", "-scheme", "pythia"},
		"pythia-fuzz":   {"-quick", "-seed", "1", "-execs", "200"},
		"pythiad":       {"-addr", "127.0.0.1:0"},
	}
	for _, c := range []struct{ cli, flag, diag string }{
		{"pythia-bench", "-metrics", "unwritable -metrics path"},
		{"pythiac", "-metrics", "unwritable -metrics path"},
		{"pythia-attack", "-metrics", "unwritable -metrics path"},
		{"pythia-fuzz", "-metrics", "unwritable -metrics path"},
		{"pythia-bench", "-trace", "unwritable -trace path"},
		{"pythiac", "-trace", "unwritable -trace path"},
		{"pythia-bench", "-journal", "invalid -journal"},
		{"pythiac", "-journal", "invalid -journal"},
		{"pythia-attack", "-journal", "invalid -journal"},
		{"pythia-fuzz", "-journal", "invalid -journal"},
		{"pythiad", "-journal", "invalid -journal"},
	} {
		t.Run(c.cli+c.flag, func(t *testing.T) {
			// Flags go before pythiac's positional source file.
			args := append([]string{c.flag, bad}, work[c.cli]...)
			out := expectExit2(t, builtBinary(t, c.cli), c.diag, args...)
			if c.cli == "pythia-fuzz" && strings.Contains(out, "  execs ") {
				t.Fatalf("fuzz campaign ran under a bad %s path:\n%s", c.flag, out)
			}
		})
	}
}

// TestPythiacFailureWritesOutputs: a compile error still leaves a valid
// journal holding the failed compile span and a parseable metrics dump.
func TestPythiacFailureWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/bad.c", []byte("int main() { return undefined_var; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(builtBinary(t, "pythiac"), "-journal", "j.jsonl", "-metrics", "m.json", "bad.c")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if exit, isExit := err.(*exec.ExitError); !isExit || exit.ExitCode() != 1 {
		t.Fatalf("compile error must exit 1, got %v:\n%s", err, out)
	}

	raw, err := os.ReadFile(dir + "/j.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJournal(bytes.NewReader(raw)); err != nil {
		t.Fatalf("journal invalid after a failed run: %v\n%s", err, raw)
	}
	var events []obs.JournalEvent
	for dec := json.NewDecoder(bytes.NewReader(raw)); dec.More(); {
		var ev obs.JournalEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	found := false
	for _, sp := range obs.SpansOf(events) {
		found = found || sp.Name == "compile bad.c"
	}
	if !found {
		t.Fatalf("journal lacks the failed compile span:\n%s", raw)
	}

	b, err := os.ReadFile(dir + "/m.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("metrics dump does not parse after a failed run: %v\n%s", err, b)
	}
	if _, ok := doc.Counters["pipeline.compile.misses"]; !ok {
		t.Fatalf("metrics dump lacks pipeline.compile.misses: %s", b)
	}
}

func TestPythiaBenchCompareWithoutBaseline(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), "-compare needs -baseline",
		"-experiment", "bruteforce", "-compare")
}

func TestPythiaBenchRejectsUnreadableBaseline(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), "invalid -baseline",
		"-experiment", "bruteforce", "-compare", "-baseline", "/nonexistent-dir-pythia/b.json")
}

// TestPythiaBenchSaveCompareCycle drives the whole continuous-bench
// loop: save a history record, compare against it (zero regressions,
// exit 0), then artificially deflate the baseline's modeled cycles and
// watch -compare exit non-zero with a rendered verdict table.
func TestPythiaBenchSaveCompareCycle(t *testing.T) {
	bin := builtBinary(t, "pythia-bench")
	hist := t.TempDir() + "/BENCH_test.json"

	save := exec.Command(bin, "-experiment", "fig4a", "-quick", "-repeat", "2", "-save", hist)
	save.Dir = ".."
	if out, err := save.CombinedOutput(); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}

	cmp := exec.Command(bin, "-experiment", "fig4a", "-quick", "-baseline", hist, "-compare")
	cmp.Dir = ".."
	out, err := cmp.CombinedOutput()
	if err != nil {
		t.Fatalf("self-compare must exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "compare-modeled") || !strings.Contains(string(out), "exact") {
		t.Fatalf("verdict table missing:\n%s", out)
	}
	if strings.Contains(string(out), "REGRESSED") {
		t.Fatalf("self-compare reported a regression:\n%s", out)
	}

	// Deflate every baseline cycle count by half: the unchanged current
	// run now looks 2x slower than baseline.
	f, err := os.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(f)
	var recs []map[string]any
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("history decode: %v", err)
		}
		recs = append(recs, m)
	}
	f.Close()
	if len(recs) == 0 {
		t.Fatal("no history records saved")
	}
	for _, rec := range recs {
		for _, r := range rec["runs"].([]any) {
			rm := r.(map[string]any)
			rm["cycles"] = rm["cycles"].(float64) * 0.5
		}
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(hist, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cmp = exec.Command(bin, "-experiment", "fig4a", "-quick", "-baseline", hist, "-compare")
	cmp.Dir = ".."
	out, err = cmp.CombinedOutput()
	exit, isExit := err.(*exec.ExitError)
	if !isExit || exit.ExitCode() != 1 {
		t.Fatalf("inflated baseline must exit 1, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "REGRESSED") || !strings.Contains(string(out), "regression:") {
		t.Fatalf("regression verdicts missing:\n%s", out)
	}
}

// TestPythiaBenchServe starts a sweep with the live observability
// server and exercises every endpoint while experiments run.
func TestPythiaBenchServe(t *testing.T) {
	bin := builtBinary(t, "pythia-bench")
	cmd := exec.Command(bin, "-experiment", "fig4a", "-quick", "-repeat", "3", "-serve", "127.0.0.1:0")
	cmd.Dir = ".."
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The serve line prints before the sweep starts; find the address,
	// then keep draining stderr so the child never blocks on the pipe.
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); strings.Contains(line, "# serving observability") && i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		t.Fatalf("serve line not found on stderr (stdout so far: %s)", stdout.String())
	}
	go io.Copy(io.Discard, stderr)

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}
	if got := string(get("/healthz")); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	var vars struct {
		Pythia json.RawMessage `json:"pythia"`
	}
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil || len(vars.Pythia) == 0 {
		t.Errorf("/debug/vars missing pythia registry (err=%v)", err)
	}
	if len(get("/debug/pprof/")) == 0 {
		t.Error("/debug/pprof/ empty")
	}
	var hot struct {
		Sites []json.RawMessage `json:"sites"`
	}
	if err := json.Unmarshal(get("/hotsites?n=10"), &hot); err != nil {
		t.Errorf("/hotsites does not parse: %v", err)
	}
	var prog struct {
		Total   int `json:"total"`
		Repeats int `json:"repeats"`
	}
	if err := json.Unmarshal(get("/progress"), &prog); err != nil || prog.Total != 3 || prog.Repeats != 3 {
		t.Errorf("/progress wrong: %+v (err=%v)", prog, err)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve run failed: %v", err)
	}
	if !strings.Contains(stdout.String(), "fig4a") {
		t.Fatalf("table stream lost under -serve:\n%s", stdout.String())
	}
}

// TestPythiaAttackMetricsFile / TestPythiacMetricsFile: the -metrics
// flag parity — both CLIs dump the registry they populate.
func TestPythiaAttackMetricsFile(t *testing.T) {
	path := t.TempDir() + "/m.json"
	run(t, "./cmd/pythia-attack", "-case", "scanf-scalar-taint", "-scheme", "pythia", "-metrics", path)
	checkMetricsFile(t, path)
}

func TestPythiacMetricsFile(t *testing.T) {
	path := t.TempDir() + "/m.json"
	run(t, "./cmd/pythiac", "-scheme", "pythia", "-stdin", "testdata/benign.txt", "-metrics", path, "testdata/demo.c")
	checkMetricsFile(t, path)
}

func checkMetricsFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("metrics dump does not parse: %v\n%s", err, b)
	}
	if len(doc.Counters) == 0 {
		t.Fatalf("metrics dump has no counters: %s", b)
	}
	// The VM must have reported instruction traffic.
	found := false
	for name := range doc.Counters {
		if strings.HasPrefix(name, "vm.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no vm.* counters in dump: %s", b)
	}
}

// TestPythiaAttackMetricsText: "-" dumps aligned text to stderr.
func TestPythiaAttackMetricsText(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/pythia-attack", "-case", "scanf-scalar-taint", "-scheme", "pythia", "-metrics", "-")
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if _, isExit := err.(*exec.ExitError); !isExit {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "vm.instrs") {
		t.Fatalf("text metrics dump missing from stderr:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "vm.instrs") {
		t.Fatal("metrics text leaked onto stdout")
	}
}

// TestPythiaAttackJSON: -json must emit the outcome matrix as one JSON
// document, with a forensic report (non-empty window, address, segment)
// under every detection.
func TestPythiaAttackJSON(t *testing.T) {
	out := runStdout(t, "./cmd/pythia-attack", "-case", "scanf-scalar-taint", "-json")
	var doc struct {
		Outcomes []struct {
			Case      string `json:"case"`
			Scheme    string `json:"scheme"`
			Attack    string `json:"attack"`
			Detector  string `json:"detector"`
			Forensics *struct {
				Kind    string `json:"kind"`
				Func    string `json:"func"`
				Scheme  string `json:"scheme"`
				Addr    string `json:"addr"`
				Segment string `json:"segment"`
				Window  []struct {
					Func  string `json:"func"`
					Instr string `json:"instr"`
				} `json:"window"`
			} `json:"forensics"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(doc.Outcomes) != 4 { // one case, all four schemes
		t.Fatalf("want 4 outcomes, got %d", len(doc.Outcomes))
	}
	detections := 0
	for _, o := range doc.Outcomes {
		if o.Attack != "detected" {
			continue
		}
		detections++
		if o.Detector == "" {
			t.Errorf("%s/%s: detection without detector", o.Case, o.Scheme)
		}
		f := o.Forensics
		if f == nil {
			t.Fatalf("%s/%s: detection without forensics", o.Case, o.Scheme)
		}
		if len(f.Window) == 0 || f.Kind == "" || f.Func == "" || f.Scheme != o.Scheme {
			t.Errorf("%s/%s: forensics incomplete: %+v", o.Case, o.Scheme, f)
		}
	}
	if detections == 0 {
		t.Fatal("no detections in the matrix")
	}
}

// TestPythiaAttackForensicsFlag: -forensics renders the flight window
// as an indented block under the table row.
func TestPythiaAttackForensicsFlag(t *testing.T) {
	out := run(t, "./cmd/pythia-attack", "-case", "scanf-scalar-taint", "-scheme", "pythia", "-forensics")
	for _, want := range []string{"last", "instructions:", "address:", "scheme: pythia"} {
		if !strings.Contains(out, want) {
			t.Fatalf("forensics block missing %q:\n%s", want, out)
		}
	}
}

// checkTraceFile asserts the file at path is valid Chrome trace_event
// JSON with at least min complete/instant events.
func checkTraceFile(t *testing.T, path string, min int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int64   `json:"pid"`
			TID   int64   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) < min {
		t.Fatalf("trace malformed: unit=%q events=%d (want >= %d)", doc.DisplayTimeUnit, len(doc.TraceEvents), min)
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || (e.Phase != "X" && e.Phase != "i") || e.PID == 0 || e.TID == 0 {
			t.Fatalf("bad event: %+v", e)
		}
	}
}

// TestPythiacTrace: -trace must write a loadable trace_event file
// covering compile, harden, and run (plus the fault instant here).
func TestPythiacTrace(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	out := run(t, "./cmd/pythiac", "-scheme", "pythia", "-stdin", "testdata/attack.txt", "-trace", path, "testdata/demo.c")
	if !strings.Contains(out, "FAULT") {
		t.Fatalf("attack input should fault:\n%s", out)
	}
	checkTraceFile(t, path, 4) // compile + harden + run spans, fault instant
}

// TestPythiaBenchTrace: -trace on the bench harness records experiment
// and workload spans without disturbing the table stream.
func TestPythiaBenchTrace(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	out := runStdout(t, "./cmd/pythia-bench", "-experiment", "fig4a", "-quick", "-trace", path)
	if !strings.Contains(out, "fig4a") {
		t.Fatalf("table output lost:\n%s", out)
	}
	checkTraceFile(t, path, 10)
}

// TestPythiaBenchQuickGolden: with observability disabled, the -quick
// table stream must be byte-identical to the committed baseline. Guards
// every obs hook staying off by default. Skipped in -short (the CI test
// job); the CI golden step covers it with the committed file.
func TestPythiaBenchQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep is slow; covered by the CI golden step")
	}
	want, err := os.ReadFile("../testdata/results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := runStdout(t, "./cmd/pythia-bench", "-quick")
	if got != string(want) {
		t.Fatalf("quick output diverged from testdata/results_quick.txt (len %d vs %d)", len(got), len(want))
	}
}

// TestPythiaFuzzList: every attack-corpus case is a fuzz target.
func TestPythiaFuzzList(t *testing.T) {
	out := run(t, "./cmd/pythia-fuzz", "-list")
	for _, want := range []string{"privesc-string-overflow", "heap-overflow", "dfi-blindspot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("target list missing %q:\n%s", want, out)
		}
	}
}

// TestPythiaFuzzRejectsUnknownTarget / TargetAndProfile: flag errors
// follow the exit-2 + usage convention of the other CLIs.
func TestPythiaFuzzRejectsUnknownTarget(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-fuzz"), `unknown target "bogus"`,
		"-target", "bogus", "-execs", "10")
}

func TestPythiaFuzzRejectsTargetAndProfile(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-fuzz"), "mutually exclusive",
		"-target", "dfi-blindspot", "-profile", "nginx", "-execs", "10")
}

// TestPythiaFuzzQuickDeterministic: the same seed and exec budget must
// produce the identical corpus digest and finding set, and the quick
// run must surface the paper's DFI pointer-arithmetic bypass.
func TestPythiaFuzzQuickDeterministic(t *testing.T) {
	type doc struct {
		Execs    int    `json:"execs"`
		Corpus   int    `json:"corpus"`
		Edges    int    `json:"edges"`
		Digest   string `json:"digest"`
		Findings []struct {
			Class  string `json:"class"`
			Target string `json:"target"`
			Scheme string `json:"scheme"`
			Input  string `json:"input"`
		} `json:"findings"`
	}
	parse := func(out string) doc {
		var d doc
		if err := json.Unmarshal([]byte(out), &d); err != nil {
			t.Fatalf("-json output does not parse: %v\n%s", err, out)
		}
		return d
	}
	a := parse(runStdout(t, "./cmd/pythia-fuzz", "-quick", "-seed", "1", "-execs", "200", "-json"))
	b := parse(runStdout(t, "./cmd/pythia-fuzz", "-quick", "-seed", "1", "-execs", "200", "-parallel", "2", "-json"))
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("corpus digests diverged: %q vs %q", a.Digest, b.Digest)
	}
	if len(a.Findings) != len(b.Findings) || a.Corpus != b.Corpus || a.Edges != b.Edges {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	found := false
	for _, fd := range a.Findings {
		if fd.Class == "bypass" && fd.Target == "dfi-blindspot" && fd.Scheme == "dfi" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DFI blindspot bypass missing from findings: %+v", a.Findings)
	}
}

// TestPythiaFuzzKnownGate: the committed known-findings file accepts the
// deterministic quick run (exit 0); an empty known file rejects it
// (exit 1) — the CI smoke contract.
func TestPythiaFuzzKnownGate(t *testing.T) {
	bin := builtBinary(t, "pythia-fuzz")
	pass := exec.Command(bin, "-quick", "-seed", "1", "-execs", "200", "-known", "testdata/fuzz_known.txt")
	pass.Dir = ".."
	if out, err := pass.CombinedOutput(); err != nil {
		t.Fatalf("known findings must gate clean: %v\n%s", err, out)
	}

	empty := t.TempDir() + "/known.txt"
	if err := os.WriteFile(empty, []byte("# nothing expected\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	failCmd := exec.Command(bin, "-quick", "-seed", "1", "-execs", "200", "-known", empty)
	failCmd.Dir = ".."
	out, err := failCmd.CombinedOutput()
	exit, isExit := err.(*exec.ExitError)
	if !isExit || exit.ExitCode() != 1 {
		t.Fatalf("new findings must exit 1, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "new finding") {
		t.Fatalf("gating diagnostic missing:\n%s", out)
	}
}

// TestPythiaFuzzExportAndRepro: exported seeds replay through -repro,
// and the malicious dfi-blindspot seed shows the differential — DFI
// bent (bypass) while Pythia detects, with forensics rendered.
func TestPythiaFuzzExportAndRepro(t *testing.T) {
	dir := t.TempDir()
	out := run(t, "./cmd/pythia-fuzz", "-target", "dfi-blindspot", "-export-seeds", dir)
	if !strings.Contains(out, "exported 2 seed files") {
		t.Fatalf("export summary wrong:\n%s", out)
	}
	out = run(t, "./cmd/pythia-fuzz", "-target", "dfi-blindspot", "-forensics",
		"-repro", dir+"/dfi-blindspot/seed1")
	for _, want := range []string{"repro dfi-blindspot", "bypass", "canary fault", "scheme: pythia"} {
		if !strings.Contains(out, want) {
			t.Fatalf("repro output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "dfi       bent") {
		t.Fatalf("DFI must bend on the reproducer:\n%s", out)
	}
}

// TestPythiaFuzzMetricsFile: -metrics parity with the other CLIs; the
// dump must carry the fuzz.* counters and gauges.
func TestPythiaFuzzMetricsFile(t *testing.T) {
	path := t.TempDir() + "/m.json"
	run(t, "./cmd/pythia-fuzz", "-target", "dfi-blindspot", "-seed", "1", "-execs", "100", "-metrics", path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("metrics dump does not parse: %v\n%s", err, b)
	}
	if doc.Counters["fuzz.execs"] < 100 {
		t.Fatalf("fuzz.execs missing or short: %s", b)
	}
	if doc.Gauges["fuzz.corpus"] <= 0 || doc.Gauges["fuzz.edges"] <= 0 || doc.Gauges["fuzz.execs_per_sec"] <= 0 {
		t.Fatalf("fuzz gauges missing: %s", b)
	}
	if doc.Counters["fuzz.findings.bypass"] == 0 {
		t.Fatalf("bypass finding counter missing: %s", b)
	}
}

// TestPythiaBenchJSON: -json must emit one well-formed document carrying
// the table data and the cache statistics.
func TestPythiaBenchJSON(t *testing.T) {
	out := runStdout(t, "./cmd/pythia-bench", "-experiment", "fig4a", "-quick", "-json")
	var doc struct {
		Repeat    int     `json:"repeat"`
		PoolSize  int     `json:"pool_size"`
		PrewarmMS float64 `json:"prewarm_ms"`
		TotalMS   float64 `json:"total_ms"`
		Env       struct {
			GoVersion  string `json:"go_version"`
			GOOS       string `json:"goos"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
		} `json:"env"`
		CacheStats struct {
			RunHits   int `json:"RunHits"`
			RunMisses int `json:"RunMisses"`
		} `json:"cache_stats"`
		Experiments []struct {
			ID             string     `json:"id"`
			Columns        []string   `json:"columns"`
			Rows           [][]string `json:"rows"`
			ElapsedMS      float64    `json:"elapsed_ms"`
			CacheRunHits   int        `json:"cache_run_hits"`
			CacheRunMisses int        `json:"cache_run_misses"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig4a" {
		t.Fatalf("unexpected document: %+v", doc)
	}
	e := doc.Experiments[0]
	if len(e.Rows) == 0 || len(e.Columns) == 0 {
		t.Fatalf("table data missing: %+v", e)
	}
	// The wall-time/cache-stats stderr lines must be mirrored here: the
	// prewarm executed every declared task (pool > 0, misses > 0) and the
	// experiment itself was then served from cache.
	if doc.PoolSize <= 0 || doc.TotalMS <= 0 || doc.PrewarmMS <= 0 {
		t.Fatalf("timing/pool fields missing: pool=%d prewarm=%v total=%v", doc.PoolSize, doc.PrewarmMS, doc.TotalMS)
	}
	if doc.CacheStats.RunMisses == 0 {
		t.Fatalf("cache stats missing: %+v", doc.CacheStats)
	}
	// The environment fingerprint rides along so saved documents are
	// interpretable on other hosts.
	if doc.Repeat != 1 || !strings.HasPrefix(doc.Env.GoVersion, "go") ||
		doc.Env.GOOS == "" || doc.Env.GOMAXPROCS <= 0 || doc.Env.NumCPU <= 0 {
		t.Fatalf("env fingerprint missing from -json: repeat=%d env=%+v", doc.Repeat, doc.Env)
	}
	if e.CacheRunHits == 0 || e.CacheRunMisses != 0 {
		t.Fatalf("per-experiment cache delta wrong (want all hits post-prewarm): %+v", e)
	}
}

// TestPythiaBenchRejectsBadAttribution: a negative site count follows
// the exit-2 + usage convention of the other flag validations.
func TestPythiaBenchRejectsBadAttribution(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythia-bench"), "invalid -attribution -1",
		"-experiment", "bruteforce", "-attribution", "-1")
}

// TestPythiaBenchAttribution: -attribution renders the per-category
// overhead ledger on stderr — prefixed with "# " so the table stream on
// stdout stays golden — and the closing summary line certifies that the
// category sums reconcile with the measured overhead deltas.
func TestPythiaBenchAttribution(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/pythia-bench", "-experiment", "fig4a", "-quick", "-attribution", "3")
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("attribution run failed: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"# attribution", "categories reconcile", "residual"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("attribution report missing %q on stderr:\n%s", want, stderr.String())
		}
	}
	if !strings.Contains(stdout.String(), "fig4a") {
		t.Fatalf("table stream lost under -attribution:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "attribution") {
		t.Fatal("attribution report leaked onto stdout")
	}
	// Every report line on stderr is comment-prefixed.
	for _, line := range strings.Split(strings.TrimRight(stderr.String(), "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "# ") {
			t.Fatalf("unprefixed stderr line %q", line)
		}
	}
}

// TestPythiaBenchServeAttribution: the live server exposes the
// attribution rows and histogram snapshots while a sweep runs.
func TestPythiaBenchServeAttribution(t *testing.T) {
	bin := builtBinary(t, "pythia-bench")
	cmd := exec.Command(bin, "-experiment", "fig4a", "-quick", "-repeat", "3", "-serve", "127.0.0.1:0")
	cmd.Dir = ".."
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); strings.Contains(line, "# serving observability") && i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		t.Fatal("serve line not found on stderr")
	}
	go io.Copy(io.Discard, stderr)

	// Both endpoints are armed for the whole run: they answer 200 with a
	// well-formed document even before the first cell completes.
	resp, err := http.Get(base + "/api/attribution")
	if err != nil {
		t.Fatalf("GET /api/attribution: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/attribution status %d:\n%s", resp.StatusCode, body)
	}
	var attribDoc struct {
		Attribution []json.RawMessage `json:"attribution"`
	}
	if err := json.Unmarshal(body, &attribDoc); err != nil {
		t.Fatalf("/api/attribution does not parse: %v\n%s", err, body)
	}

	resp, err = http.Get(base + "/api/histo")
	if err != nil {
		t.Fatalf("GET /api/histo: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/histo status %d:\n%s", resp.StatusCode, body)
	}
	var histoDoc struct {
		Histos map[string]json.RawMessage `json:"histos"`
	}
	if err := json.Unmarshal(body, &histoDoc); err != nil {
		t.Fatalf("/api/histo does not parse: %v\n%s", err, body)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve run failed: %v", err)
	}
}

// TestPythiaFuzzServeAttribution404: the fuzz server never arms the
// attribution engine, so /api/attribution answers 404 — not an empty
// 200, which would read as "measured, found no overhead" — while
// /api/histo works because metrics are armed.
func TestPythiaFuzzServeAttribution404(t *testing.T) {
	bin := builtBinary(t, "pythia-fuzz")
	cmd := exec.Command(bin, "-quick", "-seed", "1", "-execs", "5000", "-serve", "127.0.0.1:0")
	cmd.Dir = ".."
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); strings.Contains(line, "# serving observability") && i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		t.Fatal("serve line not found on stderr")
	}
	go io.Copy(io.Discard, stderr)

	resp, err := http.Get(base + "/api/attribution")
	if err != nil {
		t.Fatalf("GET /api/attribution: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/api/attribution without an armed engine: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(base + "/api/histo")
	if err != nil {
		t.Fatalf("GET /api/histo: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/histo with armed metrics: status %d, want 200", resp.StatusCode)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("fuzz serve run failed: %v", err)
	}
}
