package bench_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// sweep prewarms cfg for every experiment and renders every table, as
// pythia-bench does.
func sweep(tb testing.TB, cfg *bench.Config) {
	tb.Helper()
	cfg.Prewarm(bench.All())
	for _, e := range bench.All() {
		if _, err := e.Run(cfg); err != nil {
			tb.Fatalf("%s: %v", e.ID, err)
		}
	}
}

// liveHeap collects and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCensusHoldsOnlyNumbers: the Runner keeps one Census per profile
// for the whole sweep, so nothing in it may reach a module or an
// analysis.
func TestCensusHoldsOnlyNumbers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch k := typ.Kind(); {
		case k == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case k == reflect.Map:
			check(path+"[key]", typ.Key())
			check(path+"[elem]", typ.Elem())
		case k < reflect.Bool || k > reflect.Float64 || k == reflect.Uintptr:
			t.Errorf("%s is a %s, not a number", path, typ)
		}
	}
	check("Census", reflect.TypeOf(bench.Census{}))
}

// TestSweepRetainsNoAnalysis: after Prewarm and every table, with the
// Config still reachable, the heap holds the pipeline's encodings and
// the runs, not the profiles' analyses. Keeping each profile's
// slice.VulnReport (its decoded module, def-use chains, alias sets and
// every branch slice) grew it by 15.4 MB on this config; the censuses
// by 3.3 MB.
func TestSweepRetainsNoAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("prewarms and renders the quick suite")
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	cfg.Parallel = 2
	before := liveHeap()
	sweep(t, cfg)
	grown := liveHeap() - before
	runtime.KeepAlive(cfg)
	const limit = 8e6
	if grown > limit {
		t.Fatalf("live heap grew %.1f MB across the quick sweep, limit %.0f MB", float64(grown)/1e6, limit/1e6)
	}
}

// BenchmarkPrewarm runs the full-profile sweep, Prewarm with two
// workers and then every table, on a fresh Config per iteration.
// live-MB is the heap still reachable with that Config alive, read
// after a collection.
func BenchmarkPrewarm(b *testing.B) {
	b.ReportAllocs()
	var live int64
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultConfig()
		cfg.Parallel = 2
		sweep(b, cfg)
		b.StopTimer()
		live = liveHeap()
		runtime.KeepAlive(cfg)
		b.StartTimer()
	}
	b.ReportMetric(float64(live)/1e6, "live-MB")
}
