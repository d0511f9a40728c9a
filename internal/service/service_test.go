package service

// Engine-level tests, in-package so they can use the runHook seam for
// deterministic saturation and drain scenarios.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// newEngine builds an engine with test-friendly sizing and closes it
// with the test.
func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// withRegistry arms a fresh process-global metrics session for the
// test's duration.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Start(&obs.Session{Metrics: reg})
	t.Cleanup(obs.Stop)
	return reg
}

// TestSubmitVerdictMatrix: service verdicts for a known attack case
// must match the attack engine's ground truth across all four schemes,
// for both benign and malicious input.
func TestSubmitVerdictMatrix(t *testing.T) {
	c := attack.Corpus()[0] // privesc-string-overflow
	// Default seed 42 matches the pipeline's Program.Seed, so service
	// verdicts are comparable to the attack engine's.
	e := newEngine(t, Config{Workers: 4})

	for _, scheme := range []string{"vanilla", "cpa", "pythia", "dfi"} {
		s, _ := core.ParseScheme(scheme)
		truth, err := attack.RunWith(core.NewPipeline(), &c, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			label, stdin, want string
		}{
			{"benign", c.Benign, truth.Benign.String()},
			{"malicious", c.Malicious, truth.Attack.String()},
		} {
			resp, err := e.Submit(&SubmitRequest{
				Source: c.Source, Scheme: scheme, Stdin: in.stdin, Tenant: "matrix",
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, in.label, err)
			}
			if resp.Verdict != in.want {
				t.Errorf("%s/%s: verdict %q, want %q (ground truth)", scheme, in.label, resp.Verdict, in.want)
			}
		}
	}
}

// TestForensicsOnlyWhenRequested: the flight recorder is armed only
// for a request that asks for forensics, and arming it changes nothing
// but the window in the response.
func TestForensicsOnlyWhenRequested(t *testing.T) {
	c := attack.Corpus()[0] // privesc-string-overflow
	e := newEngine(t, Config{Workers: 1})
	submit := func(forensics bool) *SubmitResponse {
		t.Helper()
		resp, err := e.Submit(&SubmitRequest{
			Source: c.Source, Scheme: "pythia", Stdin: c.Malicious, Forensics: forensics,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fault == nil {
			t.Fatalf("forensics=%v: malicious input not detected: %+v", forensics, resp)
		}
		return resp
	}
	with, without := submit(true), submit(false)
	if with.Fault.Forensics == nil {
		t.Fatal("forensics requested but absent")
	}
	if without.Fault.Forensics != nil {
		t.Fatalf("forensics not requested but present: %+v", without.Fault.Forensics)
	}
	with.Fault.Forensics = nil
	if *with.Fault != *without.Fault {
		t.Fatalf("fault fields differ:\n with    %+v\n without %+v", *with.Fault, *without.Fault)
	}
	// The second submit hits the build memo and waits its own time in
	// the queue; every other field must match.
	with.CacheHit, with.QueueWaitMS = without.CacheHit, without.QueueWaitMS
	with.Fault = without.Fault
	if *with != *without {
		t.Fatalf("arming the recorder changed the response:\n with    %+v\n without %+v", with, without)
	}
}

// TestCoverageWithoutSession: with no session active, "coverage": true
// answers from the run's own per-site tally — the site that detected
// the attack carries the run's one fault — and a run that reaches no
// check answers an empty object, never null.
func TestCoverageWithoutSession(t *testing.T) {
	if obs.Current() != nil {
		t.Fatal("session active at test start")
	}
	c := attack.Corpus()[0] // privesc-string-overflow
	e := newEngine(t, Config{Workers: 1})
	resp, err := e.Submit(&SubmitRequest{
		Source: c.Source, Scheme: "pythia", Stdin: c.Malicious, Forensics: true, Coverage: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "detected" || resp.Fault == nil {
		t.Fatalf("malicious input not detected: %+v", resp)
	}
	report, ok := resp.Fault.Forensics.(*obs.FaultReport)
	if !ok || report.Site == "" {
		t.Fatalf("forensics without a site: %#v", resp.Fault.Forensics)
	}
	sites, ok := resp.Coverage.(map[string]obs.SiteCount)
	if !ok || len(sites) == 0 || len(sites) != resp.ExecutedSites {
		t.Fatalf("coverage = %#v, want one entry per executed site (%d)", resp.Coverage, resp.ExecutedSites)
	}
	var faults int64
	for _, sc := range sites {
		faults += sc.Faults
	}
	if faults != 1 || sites[report.Site].Faults != 1 {
		t.Errorf("fault at %s, tally %v", report.Site, sites)
	}

	clean, err := e.Submit(&SubmitRequest{Source: c.Source, Scheme: "vanilla", Stdin: c.Benign, Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"coverage":{}`) {
		t.Errorf("a run with no checks must answer an empty coverage object: %s", body)
	}
}

// TestSubmitCacheHitAndZeroMisses: resubmitting the same source×scheme
// reports a cache hit and pays zero compile/harden misses.
func TestSubmitCacheHitAndZeroMisses(t *testing.T) {
	reg := withRegistry(t)
	e := newEngine(t, Config{Workers: 2})
	req := func() *SubmitRequest {
		return &SubmitRequest{Source: "int main() { return 11; }", Scheme: "pythia"}
	}

	r1, err := e.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || r1.Verdict != "clean" || r1.Ret != 11 {
		t.Fatalf("first submit: %+v", r1)
	}
	missesAfterFirst := reg.Counter("pipeline.compile.misses").Value() +
		reg.Counter("pipeline.harden.misses").Value()

	r2, err := e.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatalf("second identical submit must be a cache hit: %+v", r2)
	}
	misses := reg.Counter("pipeline.compile.misses").Value() +
		reg.Counter("pipeline.harden.misses").Value()
	if misses != missesAfterFirst {
		t.Fatalf("repeat submit recompiled: misses %d -> %d", missesAfterFirst, misses)
	}
}

// TestSubmitValidation: out-of-contract requests are rejected with
// typed RequestErrors before admission.
func TestSubmitValidation(t *testing.T) {
	e := newEngine(t, Config{Workers: 1, MaxFuel: 1000, MaxPages: 100})
	var reqErr *RequestError
	for _, bad := range []*SubmitRequest{
		{Scheme: "pythia"}, // empty source
		{Source: "int main(){return 0;}", Scheme: "parts"},                 // unknown scheme
		{Source: "int main(){return 0;}", Scheme: "pythia", Fuel: 2000},    // over fuel ceiling
		{Source: "int main(){return 0;}", Scheme: "pythia", MaxPages: 200}, // over page ceiling
		{Source: "int main(){return 0;}", Scheme: "pythia", Fuel: -1},      // negative
		{Source: "int notmain(){return 0;}", Scheme: "pythia"},             // no main -> run error
	} {
		if _, err := e.Submit(bad); !errors.As(err, &reqErr) {
			t.Fatalf("want RequestError for %+v, got %v", bad, err)
		}
	}
	// A compile error is also the client's problem, and memoized.
	if _, err := e.Submit(&SubmitRequest{Source: "int main( {", Scheme: "pythia"}); !errors.As(err, &reqErr) {
		t.Fatalf("compile error must be a RequestError, got %v", err)
	}
}

// blockingEngine arms the runHook so every job parks until release is
// called; entered signals each arrival. release is idempotent and also
// runs as a cleanup, so a failed test can't wedge the engine's Close.
func blockingEngine(t *testing.T, cfg Config) (e *Engine, entered chan string, release func()) {
	entered = make(chan string, 64)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	e = newEngine(t, cfg)
	t.Cleanup(release) // runs before newEngine's Close (LIFO)
	e.runHook = func(j *job) {
		entered <- j.tName
		<-gate
	}
	return e, entered, release
}

const trivial = "int main() { return 0; }"

// TestBackpressureSaturation: with one worker parked and the one-slot
// queue full, the next submit is rejected immediately with
// ErrSaturated — bounded occupancy, never unbounded blocking.
func TestBackpressureSaturation(t *testing.T) {
	e, entered, release := blockingEngine(t, Config{Workers: 1, QueueDepth: 1, TenantInflight: 16})

	results := make(chan error, 2)
	submit := func() {
		_, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "vanilla"})
		results <- err
	}
	go submit()
	<-entered // worker holds job 1
	go submit()
	// Job 2 sits in the queue; it can never advance while the worker is
	// parked, so the queue is deterministically full now... except for
	// the window between job 2's Submit call and its enqueue. Poll the
	// depth to close it.
	waitFor(t, func() bool { d, _ := e.QueueDepth(); return d == 1 })

	_, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "vanilla"})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated submit: got %v, want ErrSaturated", err)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked submit %d failed: %v", i, err)
		}
	}
}

// TestTenantQuota: one tenant at its in-flight cap is rejected with a
// TenantSaturatedError while other tenants keep being admitted.
func TestTenantQuota(t *testing.T) {
	e, entered, release := blockingEngine(t, Config{Workers: 1, QueueDepth: 8, TenantInflight: 1})

	results := make(chan error, 2)
	go func() {
		_, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "vanilla", Tenant: "a"})
		results <- err
	}()
	<-entered // tenant a's job holds the worker

	var tenErr *TenantSaturatedError
	if _, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "vanilla", Tenant: "a"}); !errors.As(err, &tenErr) {
		t.Fatalf("tenant a over quota: got %v, want TenantSaturatedError", err)
	}
	go func() {
		_, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "vanilla", Tenant: "b"})
		results <- err
	}()
	// Tenant b must be admitted (queued) even while a is at quota.
	waitFor(t, func() bool { d, _ := e.QueueDepth(); return d == 1 })
	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Rejection is visible in the tenant ledger.
	for _, ts := range e.Tenants() {
		if ts.Name == "a" && ts.Rejected != 1 {
			t.Fatalf("tenant a rejected = %d, want 1", ts.Rejected)
		}
	}
}

// TestDrainRejectsAndCloseCompletes: draining rejects new submissions
// with ErrDraining while the in-flight one still completes, and Close
// returns once everything is answered.
func TestDrainRejectsAndCloseCompletes(t *testing.T) {
	e, entered, release := blockingEngine(t, Config{Workers: 1, QueueDepth: 4})

	result := make(chan error, 1)
	go func() {
		_, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "pythia"})
		result <- err
	}()
	<-entered
	e.BeginDrain()
	if _, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "pythia"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("drain submit: got %v, want ErrDraining", err)
	}
	release()
	if err := <-result; err != nil {
		t.Fatalf("in-flight submit must complete through drain: %v", err)
	}
	e.Close() // must not hang; Cleanup's second Close is a no-op drain
	if _, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "pythia"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submit: got %v, want ErrDraining", err)
	}
}

// TestQuotaFaultIsolation: a fuel-exceeding and a page-quota-exceeding
// program return clean fault verdicts without affecting a concurrent
// tenant's clean run.
func TestQuotaFaultIsolation(t *testing.T) {
	e := newEngine(t, Config{Workers: 2})
	hog := `
int main() {
	char *p = malloc(262144);
	int i;
	for (i = 0; i < 64; i = i + 1) {
		p[i * 4096] = 1;
	}
	return 7;
}`
	// Calibrate: unlimited run reports its committed footprint.
	probe, err := e.Submit(&SubmitRequest{Source: hog, Scheme: "vanilla", Tenant: "hog"})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Fault != nil {
		t.Fatalf("probe faulted: %+v", probe.Fault)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			r, err := e.Submit(&SubmitRequest{Source: trivial, Scheme: "pythia", Tenant: "bystander"})
			if err != nil || r.Verdict != "clean" {
				t.Errorf("bystander run %d: %v %+v", i, err, r)
				return
			}
		}
	}()

	oom, err := e.Submit(&SubmitRequest{
		Source: hog, Scheme: "vanilla", Tenant: "hog",
		MaxPages:  probe.Pages - 16,
		Forensics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if oom.Verdict != "crashed" || oom.Fault == nil || oom.Fault.Kind != "oom" {
		t.Fatalf("page-quota run: verdict=%s fault=%+v, want crashed/oom", oom.Verdict, oom.Fault)
	}
	if oom.Fault.Forensics == nil {
		t.Fatal("forensics requested but absent on oom fault")
	}

	oof, err := e.Submit(&SubmitRequest{Source: hog, Scheme: "vanilla", Tenant: "hog", Fuel: 100})
	if err != nil {
		t.Fatal(err)
	}
	if oof.Verdict != "crashed" || oof.Fault == nil || oof.Fault.Kind != "out-of-fuel" {
		t.Fatalf("fuel-quota run: verdict=%s fault=%+v, want crashed/out-of-fuel", oof.Verdict, oof.Fault)
	}
	wg.Wait()
}

// TestConcurrentTenants is the acceptance hammer: 64 concurrent
// submissions across 4 tenants complete with bounded queue occupancy,
// and a repeat wave of the same sources reports zero compile/harden
// misses.
func TestConcurrentTenants(t *testing.T) {
	reg := withRegistry(t)
	e := newEngine(t, Config{Workers: 4, QueueDepth: 64, TenantInflight: 64})
	c := attack.Corpus()[0]
	schemes := []string{"vanilla", "cpa", "pythia", "dfi"}

	wave := func() {
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				src, stdin := trivial, ""
				if i%2 == 0 {
					src, stdin = c.Source, c.Benign
				}
				resp, err := e.Submit(&SubmitRequest{
					Source: src,
					Scheme: schemes[i%len(schemes)],
					Stdin:  stdin,
					Tenant: fmt.Sprintf("tenant-%d", i%4),
				})
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				if resp.Verdict != "clean" {
					t.Errorf("submit %d: verdict %s", i, resp.Verdict)
				}
				if d, capQ := e.QueueDepth(); d > capQ {
					t.Errorf("queue occupancy %d exceeds capacity %d", d, capQ)
				}
			}()
		}
		wg.Wait()
	}

	wave()
	missesAfterWave1 := reg.Counter("pipeline.compile.misses").Value() +
		reg.Counter("pipeline.harden.misses").Value()
	wave()
	misses := reg.Counter("pipeline.compile.misses").Value() +
		reg.Counter("pipeline.harden.misses").Value()
	if misses != missesAfterWave1 {
		t.Fatalf("repeat wave recompiled: misses %d -> %d", missesAfterWave1, misses)
	}

	tenants := e.Tenants()
	if len(tenants) != 4 {
		t.Fatalf("tenants = %d, want 4", len(tenants))
	}
	var total, hits int64
	for _, ts := range tenants {
		total += ts.Completed
		hits += ts.CacheHits
		if ts.Inflight != 0 {
			t.Fatalf("tenant %s still in flight after waves", ts.Name)
		}
	}
	if total != 128 {
		t.Fatalf("completed = %d, want 128", total)
	}
	if hits < 64 {
		t.Fatalf("cache hits = %d, want at least the full second wave", hits)
	}
}

// TestPanicAnswers500: a panic while serving one request answers that
// request 500, counts it and journals it; the next request answers 200,
// and the panicking job still released its tenant slot and its
// in-flight count, so Close drains.
func TestPanicAnswers500(t *testing.T) {
	reg, jr := obs.NewRegistry(), obs.NewJournal()
	obs.Start(&obs.Session{Metrics: reg, Journal: jr})
	t.Cleanup(obs.Stop)
	e := newEngine(t, Config{Workers: 1})
	var armed atomic.Bool
	armed.Store(true)
	e.runHook = func(*job) {
		if armed.CompareAndSwap(true, false) {
			panic("injected")
		}
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	post := func() int {
		body := `{"source": "int main() { return 5; }", "scheme": "vanilla", "tenant": "t"}`
		resp, err := http.Post(srv.URL+"/api/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(); got != http.StatusInternalServerError {
		t.Fatalf("panicking request answered %d, want 500", got)
	}
	if got := post(); got != http.StatusOK {
		t.Fatalf("request after the panic answered %d, want 200", got)
	}
	if got := reg.Counter("service.panics").Value(); got != 1 {
		t.Errorf("service.panics = %d, want 1", got)
	}
	journaled := 0
	for _, ev := range jr.Events() {
		if ev.Name == "service.panic" && ev.Attrs["panic"] == "injected" && ev.Attrs["stack"] != "" {
			journaled++
		}
	}
	if journaled != 1 {
		t.Errorf("journaled %d service.panic points with the panic and its stack, want 1", journaled)
	}
	for _, ten := range e.Tenants() {
		if ten.Inflight != 0 {
			t.Errorf("tenant %s still holds %d slots", ten.Name, ten.Inflight)
		}
	}
}

// TestMacroBlowupIsBadRequest: a 12 KB source whose macro expansion
// would reach 16 MB is the client's error, refused by the front end.
func TestMacroBlowupIsBadRequest(t *testing.T) {
	e := newEngine(t, Config{Workers: 1})
	src := "#define A " + strings.Repeat("x", 4000) + "\n/* " + strings.Repeat("A ", 4000) + "*/\nint main() { return 0; }\n"
	_, err := e.Submit(&SubmitRequest{Source: src, Scheme: "pythia"})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "macro expansion exceeds") {
		t.Fatalf("submit = %v, want a RequestError for the expansion cap", err)
	}
}
