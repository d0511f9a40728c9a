package main

import (
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/vm"
)

// fixture: a 100ns root with children [10,30], [20,50] (overlapping)
// and [70,80]: they cover 50ns, so the root's self time is 50ns.
func fixture() []span {
	return []span{
		{ID: 0, Parent: -1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Req: 1, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 2, Req: 1, Name: "c", Start: 25, End: 45},
		{ID: 4, Parent: 0, Req: 1, Name: "d", Start: 70, End: 80},
	}
}

func TestSelfTimeFixture(t *testing.T) {
	spans := fixture()
	want := map[int]time.Duration{0: 50, 1: 20, 2: 10, 3: 20, 4: 10}
	for id, w := range want {
		if got := selfTime(spans, spans[id]); got != w {
			t.Errorf("self time of span %d = %v, want %v", id, got, w)
		}
	}
	if got := coveredFrac(spans); got != 0.5 {
		t.Errorf("covered fraction = %v, want 0.5", got)
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNestingRejects(t *testing.T) {
	outside := fixture()
	outside[3].End = 60 // ends after its parent b
	otherReq := fixture()
	otherReq[4].Req = 2
	late := fixture()
	late[1].Parent = 3
	for name, spans := range map[string][]span{"outside": outside, "other req": otherReq, "parent after": late} {
		if err := checkNesting(spans); err == nil {
			t.Errorf("%s: want a nesting error", name)
		}
	}
}

// A small traced replay: one attack case through the whole miss path
// with an artifact store, then once more as a disk hit.
func TestTracedReplayNests(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := attack.CaseByName("heap-overflow")
	rp := &replayer{vmcfg: vm.Config{Seed: 42}, store: st, pipeline: core.NewPipeline}
	o := op{name: c.Name, src: c.Source, stdin: c.Malicious, miss: true,
		schemes: []core.Scheme{core.SchemePythia, core.SchemeCPA, core.SchemeDFI},
		expect:  []string{"clean", "detected(pac)", "bent"}}
	tr := newTracer(true)
	if _, err := rp.replay(tr, 0, o); err != nil {
		t.Fatal(err)
	}
	o.diskHit = true
	if _, err := rp.replay(tr, 1, o); err != nil {
		t.Fatal(err)
	}
	if len(rp.failures) > 0 {
		t.Fatal(rp.failures)
	}
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.spans {
		self := selfTime(tr.spans, s)
		if self < 0 || self+childCoverage(tr.spans, s) != s.dur() {
			t.Errorf("span %s: self %v + covered %v != duration %v", s.Name, self, childCoverage(tr.spans, s), s.dur())
		}
	}
	for name, want := range map[string]int{"minic": 1, "slice": 2, "harden": 3, "artifact.put": 4,
		"artifact.get": 4, "core.build_miss": 6, "vm.run": 6} {
		if _, n := tr.busy(name); n != want {
			t.Errorf("%d %s spans, want %d", n, name, want)
		}
	}
	if rp.diskHits != 1 {
		t.Errorf("disk hits = %d, want 1", rp.diskHits)
	}
	off := newTracer(false)
	if _, err := rp.replay(off, 2, o); err != nil || len(off.spans) != 0 {
		t.Fatalf("untraced replay: err %v, %d spans", err, len(off.spans))
	}
}
