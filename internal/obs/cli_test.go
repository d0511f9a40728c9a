package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestOutputsTraceOnly: -trace alone keeps the journal in memory and
// still writes a trace that parses.
func TestOutputsTraceOnly(t *testing.T) {
	dir := t.TempDir()
	o := Outputs{Trace: dir + "/t.json", stderr: io.Discard}
	sess := &Session{}
	if err := o.Start(sess); err != nil {
		t.Fatal(err)
	}
	if sess.Journal == nil || sess.Journal.file != nil {
		t.Fatal("a trace-only run needs an in-memory journal")
	}
	TraceSpan("work", "test")()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 1 {
		t.Fatalf("trace does not parse or lost the span (err=%v):\n%s", err, b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("a trace-only run wrote %d files, want 1", len(ents))
	}
}

// TestOutputsStreamedJournal: -journal streams a journal that passes
// the validator once Close flushes it.
func TestOutputsStreamedJournal(t *testing.T) {
	var stderr bytes.Buffer
	o := Outputs{Journal: t.TempDir() + "/j.jsonl", stderr: &stderr}
	if err := o.Start(&Session{}); err != nil {
		t.Fatal(err)
	}
	end := TraceSpan("outer", "test")
	Point("mark", "test", map[string]string{"k": "v"})
	end()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.Journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := ValidateJournal(f)
	if err != nil || st.Spans != 1 || st.Points != 1 {
		t.Fatalf("streamed journal: %+v, %v", st, err)
	}
	if !strings.Contains(stderr.String(), "# journal: 3 events -> ") {
		t.Fatalf("journal summary line missing: %q", stderr.String())
	}
}

// TestOutputsMetrics: "-" dumps text to stderr, a path dumps JSON, and
// a session without a registry gets the Default one.
func TestOutputsMetrics(t *testing.T) {
	var stderr bytes.Buffer
	o := Outputs{Metrics: "-", stderr: &stderr}
	sess := &Session{Metrics: NewRegistry()}
	if err := o.Start(sess); err != nil {
		t.Fatal(err)
	}
	sess.Metrics.Add("test.hits", 3)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "test.hits") {
		t.Fatalf("text dump missing from stderr: %q", stderr.String())
	}

	o = Outputs{Metrics: t.TempDir() + "/m.json", stderr: io.Discard}
	sess = &Session{Metrics: NewRegistry()}
	if err := o.Start(sess); err != nil {
		t.Fatal(err)
	}
	sess.Metrics.Add("test.hits", 3)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal(b, &doc); err != nil || doc.Counters["test.hits"] != 3 {
		t.Fatalf("JSON dump wrong (err=%v):\n%s", err, b)
	}

	o = Outputs{Metrics: "-", stderr: io.Discard}
	sess = &Session{}
	if err := o.Start(sess); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if sess.Metrics != Default() {
		t.Fatal("-metrics must arm the Default registry")
	}
}

// TestOutputsCloseIdempotent: Close before Start and a second Close do
// nothing — no session to stop, no file rewritten.
func TestOutputsCloseIdempotent(t *testing.T) {
	var o Outputs
	if err := o.Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
	o = Outputs{Metrics: t.TempDir() + "/m.json", stderr: io.Discard}
	if err := o.Start(&Session{Metrics: NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if Current() != nil {
		t.Fatal("Close left the session active")
	}
	if err := os.Remove(o.Metrics); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(o.Metrics); !os.IsNotExist(err) {
		t.Fatalf("second Close rewrote the dump (stat err=%v)", err)
	}
}

// TestOutputsBadPathNamesFlag: an unusable path fails Start with an
// error naming its flag, and leaves no session active.
func TestOutputsBadPathNamesFlag(t *testing.T) {
	bad := t.TempDir() + "/missing/out"
	for _, c := range []struct {
		o    Outputs
		want string
	}{
		{Outputs{Journal: bad}, "invalid -journal"},
		{Outputs{Trace: bad}, "unwritable -trace path"},
		{Outputs{Metrics: bad}, "unwritable -metrics path"},
		{Outputs{Serve: "bogus-address"}, "-serve bogus-address"},
	} {
		err := c.o.Start(&Session{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Start(%+v) = %v, want an error containing %q", c.o, err, c.want)
		}
		if Current() != nil {
			Stop()
			t.Fatalf("failed Start(%+v) left a session active", c.o)
		}
	}
}

// TestOutputsServe: -serve arms progress and the registry, prints the
// serving line, and Close shuts the server down.
func TestOutputsServe(t *testing.T) {
	var stderr bytes.Buffer
	o := Outputs{Serve: "127.0.0.1:0", stderr: &stderr}
	sess := &Session{}
	if err := o.Start(sess); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if sess.Progress == nil || sess.Metrics == nil {
		t.Fatal("-serve must arm progress and metrics")
	}
	line := stderr.String()
	i := strings.Index(line, "http://")
	if !strings.HasPrefix(line, "# serving observability on ") || i < 0 {
		t.Fatalf("serving line missing: %q", line)
	}
	base := strings.Fields(line[i:])[0]
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}
