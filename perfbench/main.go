// Command perfbench is the repository benchmark: the paper's evaluation
// sweep and open-loop pythiad traffic, each checked against known
// answers, with a separate traced run that splits the work into layers.
//
//	perfbench --workload sweep|serve-hot|serve-cold --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the per-layer metrics. The
// lines before it print every measured quantity with its unit and
// sample count. README.md in this directory documents the workloads,
// the metrics and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
)

// procs sizes everything for a two-core host: GOMAXPROCS, engine
// workers, prewarm workers and client connections.
const procs = 2

// unit per reported metric. endToEnd and perLayer are the two sets the
// JSON line carries; every name in the active set must be reported.
var (
	endToEnd = map[string]string{
		"setup_s":     "s",
		"p50_ms":      "ms",
		"peak_rss_mb": "MB",
		"ok_frac":     "ratio",
	}
	perLayer = map[string]string{
		"minic.calls": "count", "minic.busy_s": "s", "minic.kb_per_s": "KB/s",
		"irpass.busy_s": "s", "irpass.instrs_out": "count",
		"alias.busy_s": "s",
		"slice.calls":  "count", "slice.busy_s": "s", "slice.vuln_roots": "count",
		"harden.busy_s": "s", "harden.self_s": "s", "harden.sites": "count",
		"ir.decode_calls": "count", "ir.decode_busy_s": "s", "ir.encode_busy_s": "s",
		"ir.clone_busy_s": "s", "ir.module_kb": "KB",
		"artifact.get_ms": "ms", "artifact.put_ms": "ms", "artifact.hit_frac": "ratio",
		"core.build_hit_ms": "ms", "core.build_miss_ms": "ms", "core.memo_hit_frac": "ratio",
		"vm.run_calls": "count", "vm.run_busy_s": "s", "vm.mips": "Minstr/s", "vm.allocs_per_run": "count",
		"mem.pages_per_run":          "count",
		"service.queue_wait_tail_ms": "ms", "service.rejected": "count", "service.http_overhead_ms": "ms",
		"bench.prewarm_s": "s", "bench.tables_s": "s", "bench.run_hit_frac": "ratio",
		"loadgen.late_tail_ms": "ms", "loadgen.conn_wait_ms": "ms",
		"trace.overhead_pct": "%", "trace.covered_frac": "ratio",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome. Every quantity goes to the printed
// summary with its sample count; those named in the active metric set
// also go to the JSON line.
type report struct {
	mu                sync.Mutex // guards failed and errors
	attempted, failed int
	errors            []string
	values            map[string]float64
	counts            map[string]int
	units             map[string]string
	order             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}, units: map[string]string{}}
}

// set records a quantity measured over n samples.
func (r *report) set(name, unit string, v float64, n int) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name], r.units[name], r.counts[name] = v, unit, n
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errors) < 10 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// result assembles the JSON line for the metric set want, or an error
// when the run did not report one of them.
func (r *report) result(want map[string]string) (*result, error) {
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := r.values[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if r.units[n] != want[n] {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", n, r.units[n], want[n])
		}
		res.Metrics[n] = metric{Value: v, Unit: want[n]}
	}
	return res, nil
}

func (r *report) print(w *os.File) {
	for _, n := range r.order {
		fmt.Fprintf(w, "# %-28s %14.6g %-9s n=%d\n", n, r.values[n], r.units[n], r.counts[n])
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		workloadName = flag.String("workload", "", "sweep, serve-hot or serve-cold")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	w, ok := workloads[*workloadName]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sweep|serve-hot|serve-cold, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	rep := newReport()
	var err error
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		err = w.traced(rep, *seed, *seconds)
	} else {
		err = w.run(rep, *seed, *seconds)
		rep.set("ok_frac", "ratio", 1-frac(float64(rep.failed), float64(rep.attempted)), rep.attempted)
		rep.set("error_frac", "ratio", frac(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.print(os.Stdout)
	res, err := rep.result(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// benchWorkload is one named traffic mix: run measures it end to end; traced
// replays it through the layers' public functions with spans on.
type benchWorkload struct {
	run    func(rep *report, seed int64, seconds int) error
	traced func(rep *report, seed int64, seconds int) error
}

var workloads = map[string]benchWorkload{
	"sweep":      {runSweep, traceSweep},
	"serve-hot":  {func(r *report, s int64, n int) error { return runServe(r, hot, s, n) }, func(r *report, s int64, n int) error { return traceServe(r, hot, s, n) }},
	"serve-cold": {func(r *report, s int64, n int) error { return runServe(r, cold, s, n) }, func(r *report, s int64, n int) error { return traceServe(r, cold, s, n) }},
}
