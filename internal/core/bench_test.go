package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/workload"
)

// instrumenting lists the schemes whose harden stage inserts checks:
// every scheme but vanilla.
var instrumenting = allSchemes[1:]

// benchSource returns 523.xalancbmk_r, the mid-size profile the codec
// benchmarks harden.
func benchSource() (name, src string) {
	p := workload.ProfileByName("523.xalancbmk_r")
	return p.Name, workload.Source(p)
}

var compileSink *ir.Module

// BenchmarkCompileC measures the front end on 523.xalancbmk_r: the
// minic compile and irpass.Optimize.
func BenchmarkCompileC(b *testing.B) {
	name, src := benchSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod, err := core.CompileC(name, src)
		if err != nil {
			b.Fatal(err)
		}
		compileSink = mod
	}
}

// BenchmarkProtect measures one scheme's harden pass, its vulnerability
// analysis included, on a fresh decode of the vanilla compile; the
// decode is not timed.
func BenchmarkProtect(b *testing.B) {
	mod, err := core.CompileC(benchSource())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range instrumenting {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mod, err := ir.DecodeModule(enc)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.Protect(mod, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardenAllSchemes measures the harden stage of one compile
// under every instrumenting scheme: each iteration opens a fresh
// pipeline and pays its compile untimed, then resolves every scheme's
// harden miss.
func BenchmarkHardenAllSchemes(b *testing.B) {
	name, src := benchSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl := core.NewPipeline()
		if err := pl.PrewarmCompile(name, src); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, s := range instrumenting {
			if err := pl.PrewarmHarden(name, src, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuild measures one build miss per headline scheme: each
// iteration builds gen.p1.d1.c0, the default-suite program of median
// source size, with HotRounds 1, the base of perfbench's serve-cold
// programs, through a fresh pipeline, so the compile, the harden and
// Build's decode are all timed.
func BenchmarkBuild(b *testing.B) {
	var p workload.Profile
	for _, q := range workload.DefaultSuite().Profiles() {
		if q.Name == "gen.p1.d1.c0" {
			p = q
		}
	}
	if p.Name == "" {
		b.Fatal("gen.p1.d1.c0 is not in the default suite")
	}
	p.HotRounds = 1
	src := workload.Source(&p)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPipeline().Build(p.Name, src, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
