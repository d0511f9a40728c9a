package main

import (
	"strings"
	"testing"
	"time"
)

func TestStreamsRepeatPerSeed(t *testing.T) {
	const window = 2 * time.Second
	for _, m := range []mix{hot, cold} {
		a, b := stream(m, 7, window, 3), stream(m, 7, window, 3)
		if len(a) == 0 {
			t.Fatalf("mix %d: empty stream", m)
		}
		if streamDigest(a) != streamDigest(b) {
			t.Errorf("mix %d: same seed gave different streams", m)
		}
		if streamDigest(a) == streamDigest(stream(m, 8, window, 3)) {
			t.Errorf("mix %d: seeds 7 and 8 gave the same stream", m)
		}
	}
}

func TestColdSourcesDependOnSeed(t *testing.T) {
	a, b := coldStream(1, time.Second, 5), coldStream(2, time.Second, 5)
	seen := map[string]bool{}
	for _, r := range a {
		if seen[r.Source] {
			t.Fatalf("seed 1 repeats a source (%s)", r.Label)
		}
		seen[r.Source] = true
	}
	for _, r := range b {
		if seen[r.Source] {
			t.Fatalf("seeds 1 and 2 share a source (%s)", r.Label)
		}
	}
}

func TestStreamShape(t *testing.T) {
	const window = 4 * time.Second
	reqs := coldStream(3, window, 2)
	prebuilt := 0
	for i, r := range reqs {
		if r.Due < 0 || r.Due > window || (i > 0 && r.Due < reqs[i-1].Due) {
			t.Fatalf("request %d due at %v: want non-decreasing times within %v", i, r.Due, window)
		}
		if r.Expect != "clean" {
			t.Fatalf("generated program %s expects %q, want clean", r.Label, r.Expect)
		}
		if r.Prebuilt {
			prebuilt++
		}
	}
	if want := (len(reqs) + 2) / 3; prebuilt != want {
		t.Errorf("%d of %d prebuilt, want %d (one in three)", prebuilt, len(reqs), want)
	}
	if last := reqs[len(reqs)-1]; last.Due != window {
		t.Errorf("replay extras due at %v, want the window's end", last.Due)
	}

	victims, programs := catalogue()
	if len(victims) != 2*len(schemes)*len(attackVerdicts) || len(programs) != 18*len(schemes) {
		t.Fatalf("catalogue has %d victims and %d programs", len(victims), len(programs))
	}
	hotReqs := hotStream(3, window)
	isVictim := map[string]bool{}
	for _, v := range victims {
		isVictim[v.Label] = true
	}
	n := 0
	for _, r := range hotReqs {
		if isVictim[r.Label] {
			n++
		}
	}
	if want := int(hotVictimShare*float64(len(hotReqs)) + 0.5); n != want {
		t.Errorf("%d of %d hot requests are victims, want %d", n, len(hotReqs), want)
	}
	// Dealt, not drawn: every entry of a pool appears equally often, give
	// or take one.
	uses := map[string]int{}
	for _, r := range coldStream(3, 20*time.Second, 0) {
		uses[r.Label[strings.LastIndex(r.Label, "/")+1:]]++
	}
	lo, hi := 1<<30, 0
	for _, n := range uses {
		lo, hi = min(lo, n), max(hi, n)
	}
	if len(uses) != len(schemes) || hi-lo > 18 {
		t.Errorf("cold scheme counts %v: want every scheme, evenly", uses)
	}
}
