package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/vm"
)

// server is a service.Engine mounted on a loopback HTTP listener, and
// the client that drives it over at most procs connections.
type server struct {
	eng    *service.Engine
	srv    *http.Server
	url    string
	client *http.Client
	served chan error

	closeOnce sync.Once
	closeErr  error
}

func startServer(cacheDir string) (*server, error) {
	eng, err := service.New(service.Config{Workers: procs, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	eng.Mount(mux)
	s := &server{
		eng:    eng,
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String() + "/api/v1/submit",
		served: make(chan error, 1),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for it and drains the engine. It is
// safe to call more than once.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.closeErr = s.srv.Shutdown(context.Background())
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && s.closeErr == nil {
			s.closeErr = serr
		}
		s.eng.Close()
	})
	return s.closeErr
}

// post submits one encoded request and decodes a 200 response.
func (s *server) post(body []byte) (int, *service.SubmitResponse, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out service.SubmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &out, nil
}

// check is nil when a submission answered 200 with the expected verdict.
func check(req *request, resp *service.SubmitResponse, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", req.Label, err)
	}
	kind := ""
	if resp.Fault != nil {
		kind = resp.Fault.Kind
	}
	if got := verdict(resp.Verdict, kind); got != req.Expect {
		return fmt.Errorf("%s: verdict %s, want %s", req.Label, got, req.Expect)
	}
	return nil
}

// counts is a response's modeled execution, which must repeat exactly.
type counts struct {
	Cycles float64
	Instrs int64
}

// sent is one open-loop request's timing and answer.
type sent struct {
	picked, send, done time.Time
	due                time.Time
	status             int
	resp               *service.SubmitResponse
	err                error
}

// openLoop sends every request at its due time, measured from now, on
// procs connections. A request whose connection is busy at its due time
// waits in the client, and its latency still counts from the due time.
func openLoop(s *server, reqs []request, t *tracer) []sent {
	out := make([]sent, len(reqs))
	start := time.Now()
	parallel(len(reqs), func(i int) {
		r := &out[i]
		r.due, r.picked = start.Add(reqs[i].Due), time.Now()
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.send = time.Now()
		r.status, r.resp, r.err = s.post(reqs[i].body)
		r.done = time.Now()
		root := t.record("request", -1, i, r.due, r.done)
		t.record("loadgen.wait", root, i, r.due, r.send)
		t.record("http.submit", root, i, r.send, r.done)
	})
	return out
}

// serveSetup builds a serving engine for the mix: for hot traffic it
// submits every catalogue entry once and returns their modeled counts;
// for cold traffic a prior engine over the same cache directory first
// pre-builds the requests marked Prebuilt.
func serveSetup(rep *report, m mix, reqs []request, dir string) (*server, map[string]counts, error) {
	for i := range reqs {
		if err := reqs[i].encode(); err != nil {
			return nil, nil, err
		}
	}
	if m == cold {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		prior, err := service.New(service.Config{Workers: procs, CacheDir: dir})
		if err != nil {
			return nil, nil, err
		}
		var pre []request
		for _, r := range reqs {
			if r.Prebuilt {
				pre = append(pre, r)
			}
		}
		parallel(len(pre), func(i int) {
			resp, err := prior.Submit(&service.SubmitRequest{Source: pre[i].Source, Scheme: pre[i].Scheme, Stdin: pre[i].Stdin})
			if err := check(&pre[i], resp, err); err != nil {
				rep.fail("prebuild %v", err)
			}
		})
		prior.Close()
		s, err := startServer(dir)
		return s, nil, err
	}
	victims, programs := catalogue()
	entries := append(victims, programs...)
	for i := range entries {
		if err := entries[i].encode(); err != nil {
			return nil, nil, err
		}
	}
	s, err := startServer("")
	if err != nil {
		return nil, nil, err
	}
	want := make(map[string]counts, len(entries))
	var mu sync.Mutex
	parallel(len(entries), func(i int) {
		r := &entries[i]
		_, resp, err := s.post(r.body)
		if err := check(r, resp, err); err != nil {
			rep.fail("warm-up %v", err)
			return
		}
		mu.Lock()
		want[r.Label] = counts{resp.Cycles, resp.Instrs}
		mu.Unlock()
	})
	return s, want, nil
}

// parallel runs fn over 0..n-1 on procs goroutines, each taking the
// lowest index not yet taken, and waits for them.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func stream(m mix, seed int64, window time.Duration, extra int) []request {
	if m == hot {
		return hotStream(seed, window)
	}
	return coldStream(seed, window, extra)
}

// scratchDir is a fresh directory for one run's artifact stores.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "serve-")
}

// judge checks every answer of an open-loop run: status, verdict and,
// for hot traffic, the modeled counts of the entry's warm-up answer. It
// returns the latencies from the due times.
func judge(rep *report, reqs []request, out []sent, want map[string]counts) (lat samples, digest string) {
	h := sha256.New()
	for i := range out {
		r, o := &reqs[i], &out[i]
		rep.attempted++
		lat.add(o.done.Sub(o.due))
		if err := check(r, o.resp, o.err); err != nil {
			rep.fail("%v", err)
			continue
		}
		c := counts{o.resp.Cycles, o.resp.Instrs}
		fmt.Fprintf(h, "%s %v %d\n", r.Label, c.Cycles, c.Instrs)
		if w, ok := want[r.Label]; ok && w != c {
			rep.fail("%s: modeled counts %+v, warm-up gave %+v", r.Label, c, w)
		}
	}
	return lat, hex.EncodeToString(h.Sum(nil))[:16]
}

func runServe(rep *report, m mix, seed int64, seconds int) error {
	window := time.Duration(seconds) * time.Second
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var setups samples
	var s *server
	var want map[string]counts
	var reqs []request
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		reqs = stream(m, seed, window, 0)
		if s, want, err = serveSetup(rep, m, reqs, dir); err != nil {
			return err
		}
		setups.add(time.Since(start))
	}
	out := openLoop(s, reqs, newTracer(false))
	if err := s.close(); err != nil {
		return err
	}
	lat, digest := judge(rep, reqs, out, want)
	rep.set("setup_s", "s", median(setups)/1e3, len(setups))
	rep.set("p50_ms", "ms", median(lat), len(lat))
	rep.set("mean_ms", "ms", mean(lat), len(lat))
	if p, v, err := tail(lat); err == nil {
		rep.set(fmt.Sprintf("submit_p%g_ms", p), "ms", v, len(lat))
	}
	fmt.Printf("# stream %s, responses %s\n", streamDigest(reqs)[:16], digest)
	return nil
}

// replayK is how many requests a traced serve run replays serially.
const replayK = 40

func traceServe(rep *report, m mix, seed int64, seconds int) error {
	window := time.Duration(seconds) * time.Second
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := stream(m, seed, window, replayK)
	live := all
	var replayed []request
	if m == cold {
		live, replayed = all[:len(all)-replayK], all[len(all)-replayK:]
	} else {
		replayed = all[:min(replayK, len(all))]
	}
	s, want, err := serveSetup(rep, m, all, dir)
	if err != nil {
		return err
	}
	defer s.close() // for error paths; the success path checks it below

	t := newTracer(true)
	out := openLoop(s, live, t)
	judge(rep, live, out, want)
	var qwait, late, connWait []float64
	rejected := 0
	for _, o := range out {
		late = append(late, ms(o.send.Sub(o.due)))
		connWait = append(connWait, ms(max(0, o.picked.Sub(o.due))))
		if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
			rejected++
		}
		if o.resp != nil {
			qwait = append(qwait, o.resp.QueueWaitMS)
		}
	}
	for name, xs := range map[string][]float64{"service.queue_wait_tail_ms": qwait, "loadgen.late_tail_ms": late} {
		p, v, err := tail(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.set(name, "ms", v, len(xs))
		fmt.Printf("# %s is p%g\n", name, p)
	}
	rep.set("loadgen.conn_wait_ms", "ms", mean(connWait), len(connWait))
	rep.set("service.rejected", "count", float64(rejected), len(out))

	// HTTP against direct submission of the same requests, both after a
	// first direct submission has built them.
	var viaHTTP, direct samples
	for i := range replayed {
		r := &replayed[i]
		sub := &service.SubmitRequest{Source: r.Source, Scheme: r.Scheme, Stdin: r.Stdin}
		resp, err := s.eng.Submit(sub)
		if err := check(r, resp, err); err != nil {
			rep.fail("%v", err)
		}
		start := time.Now()
		_, resp, err = s.post(r.body)
		viaHTTP.add(time.Since(start))
		if err := check(r, resp, err); err != nil {
			rep.fail("%v", err)
		}
		start = time.Now()
		resp, err = s.eng.Submit(sub)
		direct.add(time.Since(start))
		if err := check(r, resp, err); err != nil {
			rep.fail("%v", err)
		}
	}
	rep.set("service.http_overhead_ms", "ms", median(viaHTTP)-median(direct), len(viaHTTP))

	cfg := s.eng.Config()
	rp := &replayer{vmcfg: vm.Config{Seed: cfg.Seed, Fuel: cfg.DefaultFuel, MaxPages: cfg.DefaultPages, Flight: obs.DefaultFlightWindow}}
	ops := make([]op, len(replayed))
	for i, r := range replayed {
		sc, err := parseScheme(r.Scheme)
		if err != nil {
			return err
		}
		ops[i] = op{name: r.Label, src: r.Source, stdin: r.Stdin, schemes: []core.Scheme{sc},
			expect: []string{r.Expect}, miss: m == cold, diskHit: m == cold && r.Prebuilt}
	}
	if m == hot {
		rp.pipeline = s.eng.Pipeline
	} else {
		rp.pipeline = core.NewPipeline
		if rp.store, err = artifact.Open(dir + "/replay"); err != nil {
			return err
		}
		// Store the disk-hit ops' artifacts first, as the prior engine did.
		off := newTracer(false)
		for _, o := range ops {
			if o.diskHit {
				o.diskHit = false
				if _, err := rp.replay(off, -1, o); err != nil {
					return err
				}
			}
		}
	}
	if err := replayAll(rep, t, rp, ops); err != nil {
		return err
	}
	for _, name := range []string{"bench.prewarm_s", "bench.tables_s", "bench.run_hit_frac"} {
		rep.set(name, perLayer[name], 0, 0)
	}
	if err := writeSpans(t, m.String(), seed); err != nil {
		return err
	}
	return s.close()
}

func parseScheme(s string) (core.Scheme, error) {
	for _, sc := range core.Schemes {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}
