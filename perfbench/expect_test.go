package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
)

func TestGoldenSections(t *testing.T) {
	for name, doc := range map[string]string{"full": fullGolden, "quick": quickGolden} {
		secs := sections(doc)
		for _, e := range bench.All() {
			if !strings.HasPrefix(secs[e.ID], "== "+e.ID+": ") {
				t.Errorf("%s golden has no %s section", name, e.ID)
			}
		}
	}
	m, err := parseModeled(sections(fullGolden)["fig4a"], sections(fullGolden)["fig4b"])
	if err != nil {
		t.Fatal(err)
	}
	if want := (modeled{PythiaOverheadPct: 12.22, CPAOverheadPct: 43.24, PythiaSizePct: 10.39}); m != want {
		t.Fatalf("modeled = %+v, want %+v", m, want)
	}
}

// The hand-written verdict table must say what the committed attacks
// table says, row by row.
func TestVerdictTableMatchesGolden(t *testing.T) {
	lines := strings.Split(sections(fullGolden)["attacks"], "\n")
	rows := 0
	for _, l := range lines[3:] {
		f := strings.Fields(l)
		if len(f) != 6 {
			continue
		}
		want, ok := attackVerdicts[f[0]]
		if !ok {
			t.Errorf("golden case %s missing from the verdict table", f[0])
			continue
		}
		rows++
		for i := range schemes {
			if f[2+i] != want[i] {
				t.Errorf("%s under %s: table says %s, golden %s", f[0], schemes[i], want[i], f[2+i])
			}
		}
	}
	if rows != len(attackVerdicts) {
		t.Errorf("golden has %d case rows, table %d", rows, len(attackVerdicts))
	}
}

// Modeled results repeat exactly: two quick sweeps agree, and two fresh
// engines give identical counts for the same cold requests.
func TestExactRepeat(t *testing.T) {
	var got []modeled
	for i := 0; i < 2; i++ {
		rep := newReport()
		tables := sweep(rep, sweepConfig(true), sections(quickGolden), newTracer(false), 0)
		if rep.failed > 0 {
			t.Fatal(rep.errors)
		}
		m, err := parseModeled(tables["fig4a"], tables["fig4b"])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if got[0] != got[1] {
		t.Fatalf("quick sweeps disagree: %+v vs %+v", got[0], got[1])
	}

	reqs := coldStream(11, 0, 4)
	var runs [2][]counts
	for i := range runs {
		eng, err := service.New(service.Config{Workers: procs})
		if err != nil {
			t.Fatal(err)
		}
		for j := range reqs {
			resp, err := eng.Submit(&service.SubmitRequest{Source: reqs[j].Source, Scheme: reqs[j].Scheme, Stdin: reqs[j].Stdin})
			if err := check(&reqs[j], resp, err); err != nil {
				t.Fatal(err)
			}
			runs[i] = append(runs[i], counts{resp.Cycles, resp.Instrs})
		}
		eng.Close()
	}
	for j := range reqs {
		if runs[0][j] != runs[1][j] {
			t.Errorf("%s: counts %+v then %+v", reqs[j].Label, runs[0][j], runs[1][j])
		}
	}
}

func TestArrivalsCount(t *testing.T) {
	for _, m := range []mix{hot, cold} {
		if n, want := len(stream(m, 5, 20*time.Second, 0)), int(20*rate[m]); n != want {
			t.Errorf("%v: %d requests in 20s, want %d", m, n, want)
		}
	}
}
