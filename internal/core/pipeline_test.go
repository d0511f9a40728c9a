package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// withMetrics runs fn under a fresh obs metrics session and returns the
// registry for counter assertions.
func withMetrics(t *testing.T, fn func()) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Start(&obs.Session{Metrics: reg})
	defer obs.Stop()
	fn()
	return reg
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestPipelineOneCompilePerSource is the acceptance check for the
// staged pipeline: building one source under every scheme — including
// concurrent duplicate requests — pays exactly one front-end compile
// and one harden per instrumenting scheme (vanilla's is the compile).
func TestPipelineOneCompilePerSource(t *testing.T) {
	pl := core.NewPipeline()
	reg := withMetrics(t, func() {
		var wg sync.WaitGroup
		for rep := 0; rep < 3; rep++ {
			for _, s := range core.Schemes {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := pl.Build("t", prog, s); err != nil {
						t.Error(err)
					}
				}()
			}
		}
		wg.Wait()
	})
	if got := counter(reg, "pipeline.compile.misses"); got != 1 {
		t.Errorf("compile misses = %d, want exactly 1 for one source", got)
	}
	if got, want := counter(reg, "pipeline.harden.misses"), int64(len(core.Schemes)-1); got != want {
		t.Errorf("harden misses = %d, want one per instrumenting scheme (%d)", got, want)
	}
	if counter(reg, "pipeline.compile.hits")+counter(reg, "pipeline.harden.hits") == 0 {
		t.Error("duplicate requests must be served as memo hits")
	}
}

// TestBuildReturnsOwnedModules: the memo holds bytes, not modules, so
// two Builds of the same key decode two modules that behave alike.
func TestBuildReturnsOwnedModules(t *testing.T) {
	pl := core.NewPipeline()
	a, err := pl.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Build("t", prog, core.SchemePythia)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mod == b.Mod {
		t.Fatal("cached Build handed out a shared module")
	}
	ra, err := a.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Ret != rb.Ret || string(ra.Stdout) != string(rb.Stdout) || *ra.Counters != *rb.Counters {
		t.Fatal("cached Build must be observationally identical to a fresh one")
	}
}

// TestPipelineMemoHoldsBytes: the memo keeps each stage's canonical
// encoding and no decoded module, which takes several times the heap of
// its bytes. After building the suite under two schemes, the live heap
// the pipeline adds stays within a small multiple of the built modules'
// encodings.
func TestPipelineMemoHoldsBytes(t *testing.T) {
	profiles := workload.DefaultSuite().Profiles()
	srcs := make([]string, len(profiles))
	for i := range profiles {
		srcs[i] = workload.Source(&profiles[i]) // generated outside the measurement
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pl := core.NewPipeline()
	encoded := 0
	for i, p := range profiles {
		for _, s := range []core.Scheme{core.SchemeVanilla, core.SchemePythia} {
			prog, err := pl.Build(p.Name, srcs[i], s)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := ir.EncodeModule(prog.Mod)
			if err != nil {
				t.Fatal(err)
			}
			encoded += len(enc)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pl)
	growth := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("heap growth %.0f B = %.1fx the %d B of built encodings", growth, growth/float64(encoded), encoded)
	if growth >= 3*float64(encoded) {
		t.Errorf("pipeline memo grew the heap by %.1fx its built modules' encodings, want under 3x", growth/float64(encoded))
	}
}

// TestPipelineDiskCache covers the persistent store: a second pipeline
// over the same directory (a stand-in for a second process) serves
// compile and harden from disk, and the resulting program behaves
// bit-identically to the cold one.
func TestPipelineDiskCache(t *testing.T) {
	dir := t.TempDir()

	pl1, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold *core.Program
	regCold := withMetrics(t, func() {
		if cold, err = pl1.Build("t", prog, core.SchemePythia); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(regCold, "pipeline.compile.misses"); got != 1 {
		t.Fatalf("cold compile misses = %d", got)
	}
	if got := counter(regCold, "artifact.put.writes"); got != 2 {
		t.Fatalf("cold run must persist compile+harden, wrote %d", got)
	}

	pl2, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warm *core.Program
	regWarm := withMetrics(t, func() {
		if warm, err = pl2.Build("t", prog, core.SchemePythia); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(regWarm, "pipeline.compile.disk_hits"); got != 1 {
		t.Fatalf("warm compile disk hits = %d", got)
	}
	if got := counter(regWarm, "pipeline.harden.disk_hits"); got != 1 {
		t.Fatalf("warm harden disk hits = %d", got)
	}
	if got := counter(regWarm, "pipeline.compile.misses") + counter(regWarm, "pipeline.harden.misses"); got != 0 {
		t.Fatalf("warm run recompiled %d stages", got)
	}

	if cold.Mod.String() != warm.Mod.String() {
		t.Fatal("disk round-trip changed the module")
	}
	if *cold.Protection.Harden != *warm.Protection.Harden {
		t.Fatalf("protection report changed across disk: %+v vs %+v", cold.Protection.Harden, warm.Protection.Harden)
	}
	rc, err := cold.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := warm.Run("bob\n")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Ret != rw.Ret || string(rc.Stdout) != string(rw.Stdout) || *rc.Counters != *rw.Counters {
		t.Fatal("warm program diverged from cold program")
	}
}

// TestVanillaHardenIsTheCompile: a vanilla Build on a fresh cache-dir
// pipeline pays no harden miss and writes only the compile artifact,
// and its module encodes to the compile's bytes.
func TestVanillaHardenIsTheCompile(t *testing.T) {
	pl, err := core.OpenPipeline(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var built *core.Program
	reg := withMetrics(t, func() {
		if built, err = pl.Build("t", prog, core.SchemeVanilla); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(reg, "pipeline.harden.misses"); got != 0 {
		t.Errorf("vanilla harden misses = %d, want 0", got)
	}
	if got := counter(reg, "artifact.put.writes"); got != 1 {
		t.Errorf("vanilla build wrote %d artifacts, want the compile's alone", got)
	}
	if st, err := pl.Store().Stats(); err != nil || st.Entries != 1 {
		t.Errorf("store holds %d entries (err %v), want 1", st.Entries, err)
	}
	got, err := ir.EncodeModule(built.Mod)
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := pl.Compile("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.EncodeModule(vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("vanilla module does not encode to the compile's bytes")
	}
	if h := built.Protection.Harden; built.Protection.Scheme != core.SchemeVanilla || h == nil || *h != (harden.Report{Scheme: harden.Vanilla}) {
		t.Errorf("vanilla protection = %+v", built.Protection)
	}
}

// TestPipelineCorruptArtifactsRecompiled truncates every persisted
// entry and demands a fresh pipeline silently recompile and rewrite.
func TestPipelineCorruptArtifactsRecompiled(t *testing.T) {
	dir := t.TempDir()
	pl1, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pl1.Build("t", prog, core.SchemeCPA)
	if err != nil {
		t.Fatal(err)
	}

	n := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		n++
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no artifacts were persisted")
	}

	pl2, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt *core.Program
	reg := withMetrics(t, func() {
		if rebuilt, err = pl2.Build("t", prog, core.SchemeCPA); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(reg, "artifact.get.corrupt"); got == 0 {
		t.Error("corrupt entries must be detected, not served")
	}
	if got := counter(reg, "pipeline.compile.misses"); got != 1 {
		t.Errorf("corrupt compile artifact must force a recompile, misses = %d", got)
	}
	if rebuilt.Mod.String() != cold.Mod.String() {
		t.Fatal("recompiled module differs from the original")
	}
	// The rewrite restored the entries: a third pipeline hits disk again.
	pl3, err := core.OpenPipeline(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg3 := withMetrics(t, func() {
		if _, err := pl3.Build("t", prog, core.SchemeCPA); err != nil {
			t.Fatal(err)
		}
	})
	if got := counter(reg3, "pipeline.compile.disk_hits") + counter(reg3, "pipeline.harden.disk_hits"); got != 2 {
		t.Errorf("entries not restored after corruption: %d disk hits", got)
	}
}

// TestPipelineCompileOwnsModule: Compile hands out caller-owned
// modules too.
func TestPipelineCompileOwnsModule(t *testing.T) {
	pl := core.NewPipeline()
	a, err := pl.Compile("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Compile("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Compile handed out a shared module")
	}
	if a.String() != b.String() {
		t.Fatal("Compile results must be identical")
	}
}

// TestPipelineStats: the memoization footprint counts distinct compile
// and harden entries, and Store is nil only for in-process pipelines.
func TestPipelineStats(t *testing.T) {
	pl := core.NewPipeline()
	if st := pl.Stats(); st.Compiles != 0 || st.Hardens != 0 {
		t.Fatalf("fresh pipeline stats = %+v", st)
	}
	if pl.Store() != nil {
		t.Fatal("in-process pipeline must have a nil store")
	}
	src := "int main() { return 3; }"
	for _, s := range []core.Scheme{core.SchemeVanilla, core.SchemePythia} {
		if _, err := pl.Build("stats-probe", src, s); err != nil {
			t.Fatal(err)
		}
	}
	// Same source again: no new entries.
	if _, err := pl.Build("stats-probe", src, core.SchemePythia); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Compiles != 1 || st.Hardens != 2 {
		t.Fatalf("stats = %+v, want 1 compile / 2 hardens", st)
	}

	dp, err := core.OpenPipeline(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Store() == nil {
		t.Fatal("disk-backed pipeline must expose its store")
	}
}

// TestCompiledModuleIsReadOnly: the vulnerability analysis and both VM
// engines only read a built module, so one decoded compile serves eight
// goroutines at once (run it under -race), and it encodes to the same
// bytes afterwards. The program has a wrapper channel, whose kind the
// front end fixes before the module is built.
func TestCompiledModuleIsReadOnly(t *testing.T) {
	const src = `
void copy_in(char *dst, char *src) { strcpy(dst, src); }
int main() {
	char buf[16];
	char line[64];
	int admin;
	admin = 0;
	fgets(line, 64);
	copy_in(buf, line);
	if (admin) { printf("GRANTED\n"); return 99; }
	return buf[0];
}`
	mod, err := core.NewPipeline().Compile("read-only", src)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Func("copy_in").Channel != ir.KindPut {
		t.Fatalf("copy_in is a %v channel, want put", mod.Func("copy_in").Channel)
	}
	before, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vr := core.Analyze(mod)
			m := vm.New(mod, vm.Config{Seed: 7, Reference: i%2 == 1})
			m.Stdin.SetInput([]byte("hello\n"))
			res, err := m.Run("main")
			if err != nil {
				got[i] = err.Error()
				return
			}
			got[i] = fmt.Sprintf("%d sites, %d roots, %d vulnerable; ret %d, fault %v, %+v",
				len(vr.Analysis.Sites), vr.TotalRoots, len(vr.PythiaVars), res.Ret, res.Fault, *res.Counters)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Errorf("goroutine %d: %s\ngoroutine 0: %s", i, g, got[0])
		}
	}
	after, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("analyzing or running the module wrote it")
	}
}

// sharedAnalysisSrc exercises every pass that reads the analysis: a
// store through a pointer with two targets, a tainted heap buffer, a
// struct whose array field a channel writes, and stack buffers.
const sharedAnalysisSrc = `
struct rec { char name[8]; long id; };
int main() {
	struct rec r; int a; int b; int *p; char buf[16]; char *h;
	a = 0; b = 0; r.id = 0;
	h = malloc(16);
	gets(buf);
	gets(r.name);
	fgets(h, 16);
	if (buf[0] == 120) { p = &a; } else { p = &b; }
	*p = buf[1];
	if (a != 0) { printf("A\n"); }
	if (b != 0) { printf("B\n"); }
	if (r.id != 0) { return 99; }
	if (h[0] == 65) { return 2; }
	return 0;
}`

// TestPipelineSharesOneAnalysis builds one source under every scheme
// from eight goroutines through one pipeline (run it under -race): the
// compile is analyzed exactly once, and every scheme's module encodes
// to the bytes core.Protect gives on a fresh decode of the vanilla
// compile, which analyzes that decode itself.
func TestPipelineSharesOneAnalysis(t *testing.T) {
	pl := core.NewPipeline()
	got := make([][]byte, len(allSchemes))
	reg := withMetrics(t, func() {
		var wg sync.WaitGroup
		for i, s := range allSchemes {
			wg.Add(1)
			go func(i int, s core.Scheme) {
				defer wg.Done()
				prog, err := pl.Build("shared", sharedAnalysisSrc, s)
				if err != nil {
					t.Error(err)
					return
				}
				got[i], err = ir.EncodeModule(prog.Mod)
				if err != nil {
					t.Error(err)
				}
			}(i, s)
		}
		wg.Wait()
	})
	if n := counter(reg, "pipeline.analysis.misses"); n != 1 {
		t.Errorf("analysis misses = %d, want 1 for one compile", n)
	}
	vanilla, err := pl.Compile("shared", sharedAnalysisSrc)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ir.EncodeModule(vanilla)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range allSchemes {
		mod, err := ir.DecodeModule(enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Protect(mod, s); err != nil {
			t.Fatal(err)
		}
		want, err := ir.EncodeModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("%v: the pipeline's module differs from core.Protect's", s)
		}
	}
}

// TestWrapperThroughLocalCopy: a wrapper that forwards its parameter
// through a local copy is a channel like one that forwards it directly,
// since the front end classifies wrappers after mem2reg has promoted the
// copy away, so Pythia and DFI instrument both programs alike.
func TestWrapperThroughLocalCopy(t *testing.T) {
	var reports []string
	for _, wrapper := range []string{
		"void copy_in(char *dst, char *src) { strcpy(dst, src); }",
		"void copy_in(char *dst, char *src) { char *p = dst; strcpy(p, src); }",
	} {
		src := wrapper + `
int main() {
	char *buf;
	char line[64];
	long admin;
	buf = malloc(16);
	admin = 0;
	fgets(line, 64);
	copy_in(buf, line);
	if (admin) { printf("GRANTED\n"); return 99; }
	return buf[0];
}`
		pl := core.NewPipeline()
		mod, err := pl.Compile("local-copy", src)
		if err != nil {
			t.Fatal(err)
		}
		if k := mod.Func("copy_in").Channel; k != ir.KindPut {
			t.Fatalf("%s: copy_in is a %v channel, want put", wrapper, k)
		}
		pythia, err := pl.Build("local-copy", src, core.SchemePythia)
		if err != nil {
			t.Fatal(err)
		}
		dfi, err := pl.Build("local-copy", src, core.SchemeDFI)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, fmt.Sprintf("%+v %+v", *pythia.Protection.Harden, *dfi.Protection.DFI))
	}
	if reports[0] != reports[1] {
		t.Fatalf("forwarding through a local copy changes the instrumentation:\n direct: %s\n copy:   %s", reports[0], reports[1])
	}
}
