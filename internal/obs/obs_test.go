package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
)

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add("shared", 1)
				r.Gauge("g").Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Max(5)
	if g.Value() != 10 {
		t.Fatalf("Max lowered the gauge: %v", g.Value())
	}
	g.Max(15)
	if g.Value() != 15 {
		t.Fatalf("Max did not raise the gauge: %v", g.Value())
	}
}

func TestRegistryDumps(t *testing.T) {
	r := NewRegistry()
	r.Add("b.count", 3)
	r.Gauge("a.level").Set(1.5)

	var txt bytes.Buffer
	r.WriteText(&txt)
	lines := strings.Split(strings.TrimSpace(txt.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "a.level") || !strings.HasPrefix(lines[1], "b.count") {
		t.Fatalf("text dump not sorted: %q", lines)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["b.count"] != 3 || snap.Gauges["a.level"] != 1.5 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	// String() implements expvar.Var: must itself be valid JSON.
	if err := json.Unmarshal([]byte(r.String()), &snap); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
}

// testInstrs builds n distinct instructions inside one function.
func testInstrs(n int) (*ir.Func, []*ir.Instr) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("f", ir.I64, nil, nil)
	b := f.NewBlock("entry")
	var ins []*ir.Instr
	for i := 0; i < n; i++ {
		in := ir.NewInstr(ir.OpAdd, fmt.Sprintf("v%d", i), ir.I64,
			ir.ConstInt(ir.I64, int64(i)), ir.ConstInt(ir.I64, 1))
		b.Append(in)
		ins = append(ins, in)
	}
	return f, ins
}

func TestFlightWraparound(t *testing.T) {
	f, ins := testInstrs(10)
	fl := NewFlight(4)
	if got := len(fl.Window()); got != 0 {
		t.Fatalf("fresh flight window has %d entries", got)
	}
	for _, in := range ins[:3] {
		fl.Record(f, in)
	}
	if w := fl.Window(); len(w) != 3 || w[0].Instr != ins[0].String() {
		t.Fatalf("pre-wrap window wrong: %+v", w)
	}
	for _, in := range ins[3:] {
		fl.Record(f, in)
	}
	w := fl.Window()
	if len(w) != 4 {
		t.Fatalf("post-wrap window has %d entries", len(w))
	}
	// Oldest-first: the last 4 recorded are ins[6..9].
	for i, e := range w {
		if want := ins[6+i].String(); e.Instr != want {
			t.Fatalf("window[%d] = %q, want %q", i, e.Instr, want)
		}
		if e.Func != "f" {
			t.Fatalf("window[%d].Func = %q", i, e.Func)
		}
	}
	if fl.Total() != 10 {
		t.Fatalf("Total = %d", fl.Total())
	}
}

func TestFaultReportRender(t *testing.T) {
	r := &FaultReport{Kind: "canary", Func: "main", Instr: "canary.check %c", Scheme: "pythia"}
	r.SetAddr(0x7effefc0, "stack")
	r.Window = []FlightEntry{{Func: "main", Instr: "store 1, %p"}}
	s := r.String()
	for _, want := range []string{"canary fault in @main", "[canary.check %c]", "scheme: pythia", "0x7effefc0 (stack)", "last 1 instructions", "store 1, %p"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	// JSON form must round-trip with the documented field names.
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"kind"`, `"func"`, `"addr"`, `"segment"`, `"window"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s: %s", key, b)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	if Current() != nil {
		t.Fatal("session active at test start")
	}
	if end := TraceSpan("x", "y"); fmt.Sprintf("%p", end) == "" {
		t.Fatal("unreachable") // TraceSpan must return a callable no-op
	} else {
		end()
	}
	s := Start(&Session{Journal: NewJournal(), Metrics: NewRegistry()})
	defer Stop()
	if Current() != s || CurrentJournal() != s.Journal || CurrentMetrics() != s.Metrics {
		t.Fatal("session accessors disagree")
	}
	TraceSpan("span", "test")()
	Point("inst", "test", nil)
	if n := len(s.Journal.Events()); n != 3 {
		t.Fatalf("journal has %d events, want begin+end+point", n)
	}
	Stop()
	if Current() != nil || CurrentJournal() != nil || CurrentMetrics() != nil {
		t.Fatal("Stop did not clear the session")
	}
}
