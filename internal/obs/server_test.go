package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/perf"
)

// get fetches a path from the test server and returns the body,
// failing the test on transport errors or non-200 statuses.
func get(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
	}
	return body
}

// TestServerEndpoints checks every endpoint answers with well-formed
// content over a populated session.
func TestServerEndpoints(t *testing.T) {
	sess := &Session{
		Metrics:  Default(),
		Sites:    perf.NewSiteProf(),
		Progress: &Progress{},
	}
	sess.Metrics.Add("server_test.counter", 3)
	sess.Sites.Add(perf.SiteKey{Module: "prog", Func: "main", Instr: "add %1, %2"}, 10, 42.5)
	sess.Progress.Begin(4, 2)
	sess.Progress.StartExperiment("fig4a", 1)
	sess.Progress.FinishExperiment("fig4a", 1, 15*time.Millisecond)

	ts := httptest.NewServer(NewMux(sess))
	defer ts.Close()

	if got := string(get(t, ts.URL, "/healthz")); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get(t, ts.URL, "/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars does not parse: %v", err)
	}
	var pythia struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(vars["pythia"], &pythia); err != nil {
		t.Fatalf("expvar 'pythia' does not parse: %v", err)
	}
	if pythia.Counters["server_test.counter"] != 3 {
		t.Errorf("registry not visible through /debug/vars: %v", pythia.Counters)
	}

	if body := get(t, ts.URL, "/debug/pprof/"); len(body) == 0 {
		t.Error("/debug/pprof/ empty")
	}

	var hot struct {
		Sites []perf.HotSite `json:"sites"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/hotsites?n=10"), &hot); err != nil {
		t.Fatalf("/hotsites does not parse: %v", err)
	}
	if len(hot.Sites) != 1 || hot.Sites[0].Module != "prog" || hot.Sites[0].Func != "main" || hot.Sites[0].Cycles != 42.5 {
		t.Errorf("/hotsites wrong content: %+v", hot.Sites)
	}

	var prog ProgressSnapshot
	if err := json.Unmarshal(get(t, ts.URL, "/progress"), &prog); err != nil {
		t.Fatalf("/progress does not parse: %v", err)
	}
	if prog.Total != 4 || prog.Repeats != 2 || prog.Completed != 1 || prog.Done[0].ID != "fig4a" {
		t.Errorf("/progress wrong content: %+v", prog)
	}

	// Bad query parameter: descriptive 400, not a panic.
	resp, err := http.Get(ts.URL + "/hotsites?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/hotsites?n=bogus: status %d, want 400", resp.StatusCode)
	}
}

// TestServerJournalEndpoints: /metricz mirrors the -metrics - text
// dump (histogram lines included), and the /api/journal, /api/spans,
// /api/coverage, /api/attribution, /api/histo endpoints serve the
// session's journal, coverage, attribution and histogram state as JSON.
func TestServerJournalEndpoints(t *testing.T) {
	sess := &Session{
		Metrics:  NewRegistry(),
		Journal:  NewJournal(),
		Coverage: NewCoverageAgg(),
		Attrib:   NewAttribAgg(),
	}
	sess.Metrics.Add("endpoint_test.counter", 7)
	for _, v := range []float64{0.5, 2, 8, 32} {
		sess.Metrics.Histo("endpoint_test.lat.ms").Observe(v)
	}
	sess.Attrib.Record("p", "vanilla", "fp1", 100, 0, nil)
	sess.Attrib.Record("p", "pythia", "fp1", 130, 2,
		map[string]SiteCount{"@f#0:pa.sign": {Execs: 4, Cycles: 20}})
	end := sess.Journal.Begin("outer", "t")
	sess.Journal.Begin("inner", "t")()
	sess.Journal.Point("hit", "cache", map[string]string{"key": "k1"})
	end()
	sess.Coverage.Record("p", "pythia", []string{"@f#0:pa.sign", "@f#1:pa.auth"}, 20,
		map[string]SiteCount{"@f#0:pa.sign": {Execs: 4}})

	ts := httptest.NewServer(NewMux(sess))
	defer ts.Close()

	// /metricz must be byte-identical to WriteText's dump.
	var want strings.Builder
	sess.Metrics.WriteText(&want)
	if got := string(get(t, ts.URL, "/metricz")); got != want.String() {
		t.Errorf("/metricz = %q, want %q", got, want.String())
	}

	var jr struct {
		Events []JournalEvent `json:"events"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/api/journal"), &jr); err != nil {
		t.Fatalf("/api/journal does not parse: %v", err)
	}
	if len(jr.Events) != 5 { // outer begin, inner begin+end, point, outer end
		t.Errorf("/api/journal has %d events, want 5", len(jr.Events))
	}

	var sr struct {
		Spans []JournalSpan `json:"spans"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/api/spans"), &sr); err != nil {
		t.Fatalf("/api/spans does not parse: %v", err)
	}
	if len(sr.Spans) != 2 || sr.Spans[1].Name != "inner" || sr.Spans[1].Parent != sr.Spans[0].ID {
		t.Errorf("/api/spans wrong content: %+v", sr.Spans)
	}

	var cr struct {
		Coverage []CoverageRow `json:"coverage"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/api/coverage"), &cr); err != nil {
		t.Fatalf("/api/coverage does not parse: %v", err)
	}
	if len(cr.Coverage) != 1 || cr.Coverage[0].Static != 2 || cr.Coverage[0].Executed != 1 {
		t.Errorf("/api/coverage wrong content: %+v", cr.Coverage)
	}

	var ar struct {
		Attribution []AttribRow `json:"attribution"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/api/attribution"), &ar); err != nil {
		t.Fatalf("/api/attribution does not parse: %v", err)
	}
	if len(ar.Attribution) != 1 || ar.Attribution[0].Scheme != "pythia" || ar.Attribution[0].Delta != 30 {
		t.Errorf("/api/attribution wrong content: %+v", ar.Attribution)
	}

	var hr struct {
		Histos map[string]HistoSnapshot `json:"histos"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/api/histo"), &hr); err != nil {
		t.Fatalf("/api/histo does not parse: %v", err)
	}
	if h, ok := hr.Histos["endpoint_test.lat.ms"]; !ok || h.Count != 4 || h.Sum != 42.5 {
		t.Errorf("/api/histo wrong content: %+v", hr.Histos)
	}
}

// TestServerCloseIdle: Close on an idle server returns nil — the
// background Serve loop's http.ErrServerClosed must be filtered, not
// surfaced.
func TestServerCloseIdle(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", &Session{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, "http://"+srv.Addr(), "/healthz")
	if err := srv.Close(); err != nil {
		t.Errorf("Close() = %v, want nil", err)
	}
}

// TestServerNilSessionFields: handlers must degrade gracefully when
// the session has no sites or progress.
func TestServerNilSessionFields(t *testing.T) {
	ts := httptest.NewServer(NewMux(&Session{}))
	defer ts.Close()
	var hot struct {
		Sites []perf.HotSite `json:"sites"`
	}
	if err := json.Unmarshal(get(t, ts.URL, "/hotsites"), &hot); err != nil {
		t.Fatalf("/hotsites (nil sites) does not parse: %v", err)
	}
	if len(hot.Sites) != 0 {
		t.Errorf("expected empty site list, got %+v", hot.Sites)
	}
	var prog ProgressSnapshot
	if err := json.Unmarshal(get(t, ts.URL, "/progress"), &prog); err != nil {
		t.Fatalf("/progress (nil progress) does not parse: %v", err)
	}
	get(t, ts.URL, "/healthz")
	get(t, ts.URL, "/metricz")
	for _, p := range []string{"/api/journal", "/api/spans", "/api/coverage"} {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(get(t, ts.URL, p), &doc); err != nil {
			t.Fatalf("%s (nil session fields) does not parse: %v", p, err)
		}
	}
	// The cost-accounting endpoints 404 when their feature is not armed
	// rather than serving an empty (and misleading) answer.
	for _, p := range []string{"/api/attribution", "/api/histo"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s (not armed): status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestServerRace hammers every read endpoint while writer goroutines
// mutate the registry, the site profiler, and the progress tracker —
// the serve-mode interleaving of a live bench run. Run under -race in
// CI (obs is in the race-full package list and the -short sweep).
func TestServerRace(t *testing.T) {
	sess := &Session{
		Metrics:  NewRegistry(),
		Sites:    perf.NewSiteProf(),
		Progress: &Progress{},
	}
	// NewMux serves /debug/vars from the process-global expvar table, so
	// mutate the Default registry too to cross that path with readers.
	ts := httptest.NewServer(NewMux(sess))
	defer ts.Close()

	sess.Progress.Begin(64, 4)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sess.Metrics.Add("race.counter", 1)
				sess.Metrics.Gauge("race.gauge").Set(float64(i))
				Default().Add("race.default.counter", 1)
				sess.Sites.Add(perf.SiteKey{Module: "m", Func: "fn", Instr: fmt.Sprintf("instr%d", i%8)}, 1, 1.5)
				id := fmt.Sprintf("exp%d", i%8)
				sess.Progress.StartExperiment(id, w+1)
				sess.Progress.FinishExperiment(id, w+1, time.Microsecond)
				// Yield so the HTTP serving goroutines make progress even
				// with the race detector serializing everything.
				time.Sleep(50 * time.Microsecond)
			}
		}(w)
	}

	paths := []string{"/healthz", "/debug/vars", "/debug/pprof/", "/hotsites?n=10", "/progress"}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 10; i++ {
				for _, p := range paths {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	sess.Progress.Finish()
	if snap := sess.Progress.Snapshot(); !snap.Finished || snap.Completed == 0 {
		t.Errorf("progress snapshot after race: %+v", snap)
	}
}

// TestStartServerHandler: an embedder-composed handler serves both the
// observability mux routes and its own, through the same lifecycle.
func TestStartServerHandler(t *testing.T) {
	mux := NewMux(&Session{Metrics: NewRegistry()})
	mux.HandleFunc("/api/v1/extra", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("extra ok"))
	})
	srv, err := StartServerHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	if body := get(t, base, "/healthz"); !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %q", body)
	}
	if body := get(t, base, "/api/v1/extra"); string(body) != "extra ok" {
		t.Fatalf("extra route: %q", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestServerSetsReadTimeouts: the server bounds how long a client may
// take to send a request or sit idle, and sets no write timeout, which
// would cut the streamed /debug/pprof/profile response.
func TestServerSetsReadTimeouts(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", &Session{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := srv.srv
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("read header %v, read %v, idle %v: want all three set", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("write timeout %v, want none", hs.WriteTimeout)
	}
}
