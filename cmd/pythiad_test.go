package cmd_test

// pythiad end-to-end: the daemon is built as a real binary, driven over
// HTTP, and shut down with SIGTERM — the full lifecycle a deployment
// sees. Verdict ground truth comes from the in-process attack engine,
// so the service and the attack matrix can never drift apart silently.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
)

// pythiad is a running daemon under test.
type pythiad struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  *bytes.Buffer
	mu      sync.Mutex
	drained chan struct{} // closed when the stderr reader hits EOF
}

// startPythiad launches the built binary on an ephemeral port and
// scrapes the bound address off its stderr listen line.
func startPythiad(t *testing.T, extra ...string) *pythiad {
	t.Helper()
	bin := builtBinary(t, "pythiad")
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = ".."
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &pythiad{cmd: cmd, stderr: &bytes.Buffer{}, drained: make(chan struct{})}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.stderr.WriteString(line + "\n")
		d.mu.Unlock()
		if strings.Contains(line, "pythiad: listening on ") {
			addr := strings.Fields(strings.TrimPrefix(line, "pythiad: listening on "))[0]
			d.base = "http://" + addr
			break
		}
	}
	if d.base == "" {
		cmd.Process.Kill()
		t.Fatalf("listen line not found on stderr:\n%s", d.stderr.String())
	}
	// Keep draining stderr so the child never blocks on the pipe.
	go func() {
		defer close(d.drained)
		for sc.Scan() {
			d.mu.Lock()
			d.stderr.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

// stop SIGTERMs the daemon and asserts a clean (exit 0) drain.
func (d *pythiad) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the stderr reader reach EOF before Wait closes the pipe out
	// from under it — otherwise the farewell line can be lost.
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM shutdown must exit 0, got %v\n%s", err, d.stderrText())
	}
	if !strings.Contains(d.stderrText(), "drained, bye") {
		t.Fatalf("drain farewell missing from stderr:\n%s", d.stderrText())
	}
}

func (d *pythiad) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// submitResp mirrors the service's SubmitResponse wire shape.
type submitResp struct {
	Verdict  string `json:"verdict"`
	Scheme   string `json:"scheme"`
	Tenant   string `json:"tenant"`
	Ret      int64  `json:"ret"`
	CacheHit bool   `json:"cache_hit"`
	Fault    *struct {
		Kind string `json:"kind"`
	} `json:"fault"`
	Pages int `json:"pages"`
}

// submit POSTs one request and decodes the response, asserting the
// expected status code.
func (d *pythiad) submit(t *testing.T, body map[string]any, wantStatus int) *submitResp {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/api/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("submit status %d, want %d:\n%s", resp.StatusCode, wantStatus, payload)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var out submitResp
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("submit response does not parse: %v\n%s", err, payload)
	}
	return &out
}

// TestPythiadVerdictsMatchAttackEngine drives the daemon through the
// full lifecycle: verdicts across all four schemes against in-process
// ground truth, cache hits on resubmission, a 4-tenant concurrent
// hammer, the stats/tenants surfaces, and a validated journal after a
// graceful SIGTERM.
func TestPythiadVerdictsMatchAttackEngine(t *testing.T) {
	journal := t.TempDir() + "/pythiad.jsonl"
	cache := t.TempDir()
	d := startPythiad(t, "-journal", journal, "-cache-dir", cache, "-workers", "4")
	c := attack.Corpus()[0]

	// Verdict matrix vs the attack engine, benign and malicious.
	schemes := []string{"vanilla", "cpa", "pythia", "dfi"}
	pl := core.NewPipeline()
	for _, scheme := range schemes {
		truth, err := attack.RunWith(pl, &c, schemeByName(t, scheme))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			stdin, want string
		}{{c.Benign, truth.Benign.String()}, {c.Malicious, truth.Attack.String()}} {
			got := d.submit(t, map[string]any{
				"source": c.Source, "scheme": scheme, "stdin": in.stdin,
			}, http.StatusOK)
			if got.Verdict != in.want {
				t.Errorf("%s: daemon verdict %q, attack engine says %q", scheme, got.Verdict, in.want)
			}
		}
	}

	// Second identical submission is a cache hit.
	again := d.submit(t, map[string]any{
		"source": c.Source, "scheme": "pythia", "stdin": c.Benign,
	}, http.StatusOK)
	if !again.CacheHit {
		t.Error("resubmission must report cache_hit")
	}

	// Contract violations map to 400.
	d.submit(t, map[string]any{"source": c.Source, "scheme": "bogus"}, http.StatusBadRequest)
	d.submit(t, map[string]any{"scheme": "pythia"}, http.StatusBadRequest)

	// 4-tenant concurrent hammer through real HTTP.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(map[string]any{
				"source": c.Source, "scheme": schemes[i%4], "stdin": c.Benign,
				"tenant": fmt.Sprintf("tenant-%d", i%4),
			})
			resp, err := http.Post(d.base+"/api/v1/submit", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("hammer %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The tenants surface saw all four.
	var tenants struct {
		Tenants []struct {
			Name      string `json:"name"`
			Completed int64  `json:"completed"`
		} `json:"tenants"`
	}
	getJSON(t, d.base+"/api/v1/tenants", &tenants)
	names := 0
	for _, ts := range tenants.Tenants {
		if strings.HasPrefix(ts.Name, "tenant-") {
			names++
		}
	}
	if names != 4 {
		t.Errorf("tenant ledger has %d hammer tenants, want 4:\n%+v", names, tenants)
	}

	// Stats reflect the persistent store behind -cache-dir.
	var stats struct {
		Workers   int `json:"workers"`
		Artifacts *struct {
			Entries int `json:"entries"`
		} `json:"artifacts"`
	}
	getJSON(t, d.base+"/api/v1/stats", &stats)
	if stats.Workers != 4 {
		t.Errorf("stats workers = %d, want 4", stats.Workers)
	}
	if stats.Artifacts == nil || stats.Artifacts.Entries == 0 {
		t.Errorf("stats must report artifact-store entries: %+v", stats)
	}

	// Observability endpoints ride along on the same mux.
	if resp, err := http.Get(d.base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Graceful shutdown, then the journal must validate.
	d.stop(t)
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.ValidateJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("journal does not validate: %v", err)
	}
	if st.Events == 0 {
		t.Fatal("journal is empty after a full session")
	}
}

// TestPythiadOOMVerdict: a page-quota-exceeding submission comes back
// as a clean crashed/oom verdict over the wire.
func TestPythiadOOMVerdict(t *testing.T) {
	d := startPythiad(t)
	hog := `
int main() {
	char *p = malloc(262144);
	int i;
	for (i = 0; i < 64; i = i + 1) {
		p[i * 4096] = 1;
	}
	return 7;
}`
	probe := d.submit(t, map[string]any{"source": hog, "scheme": "vanilla"}, http.StatusOK)
	if probe.Fault != nil {
		t.Fatalf("unlimited probe faulted: %+v", probe.Fault)
	}
	oom := d.submit(t, map[string]any{
		"source": hog, "scheme": "vanilla", "max_pages": probe.Pages - 16,
	}, http.StatusOK)
	if oom.Verdict != "crashed" || oom.Fault == nil || oom.Fault.Kind != "oom" {
		t.Fatalf("quota'd run: %+v, want crashed/oom", oom)
	}
	d.stop(t)
}

func TestPythiadRejectsCacheMaxWithoutDir(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythiad"), "-cache-max-bytes needs -cache-dir",
		"-cache-max-bytes", "1024")
}

func TestPythiadRejectsNegativeSizing(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythiad"), "sizing flags must be >= 0",
		"-workers", "-1")
}

func TestPythiadRejectsPositionalArgs(t *testing.T) {
	expectExit2(t, builtBinary(t, "pythiad"), "unexpected arguments", "stray")
}

// schemeByName maps the wire scheme name to the core enum.
func schemeByName(t *testing.T, name string) core.Scheme {
	t.Helper()
	s, ok := core.ParseScheme(name)
	if !ok {
		t.Fatalf("unknown scheme %q", name)
	}
	return s
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
}
