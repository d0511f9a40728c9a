package vm_test

// Tests for the VM's observability attachment: enabling it must not
// change any observable result, faults must carry forensic windows with
// the right address/segment, and the metrics/site outputs must be
// consistent with the perf counters.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm"
)

const obsProg = `
int work(int n) {
	int a[4];
	int i;
	int s;
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		a[i % 4] = i;
		s = s + a[i % 4];
	}
	return s;
}
int main() {
	printf("s=%d\n", work(40));
	return 0;
}
`

func runWith(t *testing.T, cfg vm.Config) *vm.Result {
	t.Helper()
	mod, err := minic.Compile("t", obsProg)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, cfg)
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObsDoesNotPerturbExecution: the same program run bare, with a
// flight recorder, and under a full metrics+sites session must produce
// bit-identical results.
func TestObsDoesNotPerturbExecution(t *testing.T) {
	base := runWith(t, vm.Config{Seed: 7})

	flight := runWith(t, vm.Config{Seed: 7, Flight: 32})

	sess := obs.Start(&obs.Session{
		Metrics: obs.NewRegistry(),
		Sites:   perf.NewSiteProf(),
	})
	full := runWith(t, vm.Config{Seed: 7, Flight: 16})
	obs.Stop()

	for name, res := range map[string]*vm.Result{"flight": flight, "session": full} {
		if res.Ret != base.Ret || !bytes.Equal(res.Stdout, base.Stdout) {
			t.Errorf("%s: result diverged", name)
		}
		if *res.Counters != *base.Counters {
			t.Errorf("%s: counters diverged:\n  base: %+v\n  obs:  %+v", name, *base.Counters, *res.Counters)
		}
	}

	// The session must have seen the run: instrs mirrored into the
	// registry, cycles attributed to sites.
	snap := sess.Metrics.Snapshot()
	if snap.Counters["vm.instrs"] != base.Counters.Instrs {
		t.Errorf("vm.instrs = %d, want %d", snap.Counters["vm.instrs"], base.Counters.Instrs)
	}
	if snap.Counters["vm.engine.decoded_calls"] == 0 {
		t.Error("decoded engine routing not counted")
	}
	if n := opSum(sess.Metrics); n != base.Counters.Instrs {
		t.Errorf("opcode histogram sums to %d, want %d", n, base.Counters.Instrs)
	}
	var cycSum float64
	for _, h := range sess.Sites.Top(0) {
		cycSum += h.Cycles
	}
	// Site attribution covers every cycle charged from the first tick to
	// the end-of-run flush. The only cost outside that range is the
	// one-time heap-sectioning setup charged before the first instruction.
	model := perf.DefaultModel()
	want := base.Counters.Cycles - model.NSToCycles(model.HeapSectionInit)
	if diff := cycSum - want; diff > 1 || diff < -1 {
		t.Errorf("site cycles %v, want %v (total %v minus section init)", cycSum, want, base.Counters.Cycles)
	}
}

// TestObsTraceParityBothEngines: obs must observe through both engines.
func TestObsSessionReferenceEngine(t *testing.T) {
	sess := obs.Start(&obs.Session{Metrics: obs.NewRegistry()})
	defer obs.Stop()
	res := runWith(t, vm.Config{Seed: 7, Reference: true})
	snap := sess.Metrics.Snapshot()
	if snap.Counters["vm.instrs"] != res.Counters.Instrs {
		t.Errorf("vm.instrs = %d, want %d", snap.Counters["vm.instrs"], res.Counters.Instrs)
	}
	if snap.Counters["vm.engine.reference_calls"] == 0 {
		t.Error("reference engine routing not counted")
	}
}

// opSum totals a registry's vm.op.* counters.
func opSum(reg *obs.Registry) int64 {
	var n int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "vm.op.") {
			n += v
		}
	}
	return n
}

// profileRun is one way to run a machine twice: on either engine.
type profileRun struct {
	name      string
	reference bool
}

var profileRuns = []profileRun{{"decoded", false}, {"reference", true}}

// runTwice runs main twice on one machine built from a fresh compile of
// obsProg, protected with scheme, under an armed session.
func runTwice(t *testing.T, scheme core.Scheme, pr profileRun) (first, second *vm.Result, sess *obs.Session) {
	t.Helper()
	mod, err := minic.Compile("t", obsProg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, scheme); err != nil {
		t.Fatal(err)
	}
	sess = obs.Start(&obs.Session{
		Metrics:  obs.NewRegistry(),
		Sites:    perf.NewSiteProf(),
		Coverage: obs.NewCoverageAgg(),
		Attrib:   obs.NewAttribAgg(),
	})
	defer obs.Stop()
	m := vm.New(mod, vm.Config{Seed: 7, Reference: pr.reference})
	for _, res := range []**vm.Result{&first, &second} {
		r, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if r.Fault != nil {
			t.Fatalf("unexpected fault: %v", r.Fault)
		}
		*res = r
	}
	return first, second, sess
}

// TestProfileCumulativeAcrossRuns: a machine's profile accumulates over
// its Runs — distinct sites stay distinct, per-site counts double on a
// second identical run — while the session receives each tick once,
// and both engines agree on every figure.
func TestProfileCumulativeAcrossRuns(t *testing.T) {
	var seconds []*vm.Result
	for _, pr := range profileRuns {
		first, second, sess := runTwice(t, core.SchemeCPA, pr)
		if first.SitesExecuted == 0 || len(first.Sites) != first.SitesExecuted {
			t.Fatalf("%s: %d sites executed, tally %v", pr.name, first.SitesExecuted, first.Sites)
		}
		if second.SitesExecuted != first.SitesExecuted {
			t.Errorf("%s: sites executed %d after the second run, want %d", pr.name, second.SitesExecuted, first.SitesExecuted)
		}
		for id, c := range first.Sites {
			got := second.Sites[id]
			if got.Execs != 2*c.Execs || got.Faults != 0 || c.Cycles <= 0 || got.Cycles <= c.Cycles {
				t.Errorf("%s: site %s = %+v then %+v after two runs, want execs %d and growing cycles", pr.name, id, c, got, 2*c.Execs)
			}
		}
		// Hardening ops expand to several machine instructions, so the
		// histogram counts ticks: one per IR instruction retired.
		var ticks int64
		for _, h := range sess.Sites.Top(0) {
			ticks += h.Count
		}
		if n := opSum(sess.Metrics); n != ticks || n == 0 {
			t.Errorf("%s: vm.op.* sums to %d, site profile to %d", pr.name, n, ticks)
		}
		if got := sess.Metrics.Counter("vm.instrs").Value(); got != second.Counters.Instrs {
			t.Errorf("%s: vm.instrs = %d, meter %d", pr.name, got, second.Counters.Instrs)
		}
		seconds = append(seconds, second)
	}
	for i, res := range seconds[1:] {
		if !reflect.DeepEqual(res.Sites, seconds[0].Sites) {
			t.Errorf("%s diverged from %s:\n  %v\n  %v", profileRuns[i+1].name, profileRuns[0].name,
				res.Sites, seconds[0].Sites)
		}
	}

	// On an unhardened program every tick charges exactly one machine
	// instruction, so the histogram must sum to the meter's Instrs.
	for _, pr := range profileRuns {
		_, second, sess := runTwice(t, core.SchemeVanilla, pr)
		if n := opSum(sess.Metrics); n != second.Counters.Instrs {
			t.Errorf("%s: vm.op.* sums to %d after two runs, want %d", pr.name, n, second.Counters.Instrs)
		}
	}
}

// TestCoverageCountsDetections: the hardening check that trips is the
// one site whose tally records the fault, on both engines, with no
// session active.
func TestCoverageCountsDetections(t *testing.T) {
	const victim = `int main() { char buf[16]; int admin; admin = 0; gets(buf); if (admin != 0) { return 99; } return 0; }`
	for _, reference := range []bool{false, true} {
		mod, err := minic.Compile("victim", victim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Protect(mod, core.SchemePythia); err != nil {
			t.Fatal(err)
		}
		m := vm.New(mod, vm.Config{Seed: 7, Reference: reference, Flight: 4})
		m.Stdin.SetInput([]byte(strings.Repeat("A", 40) + "\n"))
		res, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault == nil || res.Fault.Forensics == nil || res.Fault.Forensics.Site == "" {
			t.Fatalf("reference=%v: overflow not detected at a site: %+v", reference, res.Fault)
		}
		var faults int64
		for _, c := range res.Sites {
			faults += c.Faults
		}
		if site := res.Fault.Forensics.Site; faults != 1 || res.Sites[site].Faults != 1 {
			t.Errorf("reference=%v: fault at %s, tally %v", reference, site, res.Sites)
		}
	}
}

// TestHotSitesKeepProgramsApart: two programs whose shared function
// renders identical instructions stay separate -hotsites rows.
func TestHotSitesKeepProgramsApart(t *testing.T) {
	sess := obs.Start(&obs.Session{Sites: perf.NewSiteProf()})
	defer obs.Stop()
	const work = `
int work(int n) {
	int s;
	int i;
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + i;
	}
	return s;
}
`
	for name, n := range map[string]string{"alpha": "10", "beta": "30"} {
		mod, err := minic.Compile(name, work+"int main() { return work("+n+"); }")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.New(mod, vm.Config{Seed: 7}).Run("main"); err != nil {
			t.Fatal(err)
		}
	}
	// Every instruction of the shared function keeps one row per
	// program; the loop body's rows count 10 and 30 iterations.
	rows := map[string]map[string]int64{} // work's instruction -> program -> count
	for _, h := range sess.Sites.Top(0) {
		if h.Func == "work" {
			if rows[h.Instr] == nil {
				rows[h.Instr] = map[string]int64{}
			}
			rows[h.Instr][h.Module] += h.Count
		}
	}
	body := 0
	for instr, by := range rows {
		if len(by) != 2 {
			t.Errorf("work's %q rows by program = %v, want alpha and beta", instr, by)
		}
		if by["alpha"] == 10 && by["beta"] == 30 {
			body++
		}
	}
	if body == 0 {
		t.Errorf("no row counts the loop body apart per program: %v", rows)
	}
}

const segvProg = `
int main() {
	int *p;
	p = (int *)16;
	return *p;
}
`

// TestFaultForensics: a machine armed via Config.Flight must attach a
// populated report to its fault — window, address, segment.
func TestFaultForensics(t *testing.T) {
	mod, err := minic.Compile("t", segvProg)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 7, Flight: obs.DefaultFlightWindow})
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil {
		t.Fatal("wild dereference must fault")
	}
	r := res.Fault.Forensics
	if r == nil {
		t.Fatal("armed machine's fault has no forensics")
	}
	if r.Kind != "segv" || r.Func != "main" {
		t.Errorf("report misattributed: %+v", r)
	}
	if len(r.Window) == 0 {
		t.Error("flight window is empty")
	}
	if r.Addr != "0x10" || r.Segment != "unmapped" {
		t.Errorf("addr/segment = %q/%q, want 0x10/unmapped", r.Addr, r.Segment)
	}
	if !strings.Contains(r.String(), "segv fault in @main") {
		t.Errorf("rendering wrong:\n%s", r)
	}
}

// TestNoForensicsWhenDisarmed: a bare machine's faults carry no report.
func TestNoForensicsWhenDisarmed(t *testing.T) {
	mod, err := minic.Compile("t", segvProg)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(mod, vm.Config{Seed: 7})
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Forensics != nil {
		t.Fatalf("disarmed machine grew forensics: %+v", res.Fault)
	}
}
