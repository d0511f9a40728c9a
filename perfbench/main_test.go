package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric sets the benchmark reports must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for set, pair := range map[string]struct {
		declared []decl
		reported map[string]string
	}{"end_to_end": {doc.EndToEnd, endToEnd}, "per_layer": {doc.PerLayer, perLayer}} {
		if len(pair.declared) != len(pair.reported) {
			t.Errorf("%s: %d declared, %d reported", set, len(pair.declared), len(pair.reported))
		}
		for _, d := range pair.declared {
			if u, ok := pair.reported[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s declared in %s, reported in %q", set, d.Name, d.Unit, u)
			}
		}
	}
}

func TestReportResult(t *testing.T) {
	rep := newReport()
	rep.attempted = 4
	rep.set("a", "ms", 1.5, 4)
	rep.set("b", "s", 2, 1)
	res, err := rep.result(map[string]string{"a": "ms"})
	if err != nil || !res.Correct || len(res.Metrics) != 1 || res.Metrics["a"] != (metric{1.5, "ms"}) {
		t.Fatalf("result = %+v, %v", res, err)
	}
	if _, err := rep.result(map[string]string{"c": "ms"}); err == nil {
		t.Fatal("an unmeasured metric: want an error")
	}
	if _, err := rep.result(map[string]string{"b": "ms"}); err == nil {
		t.Fatal("a unit mismatch: want an error")
	}
	rep.fail("x")
	if res, _ := rep.result(nil); res.Correct || res.Failed != 1 {
		t.Fatalf("after a failure: %+v", res)
	}
}
