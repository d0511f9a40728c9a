package alias_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/workload"
)

var resultSink *alias.Result

// BenchmarkAliasAnalyze times the points-to solver alone on one
// mid-size profile, 523.xalancbmk_r's optimized compile.
func BenchmarkAliasAnalyze(b *testing.B) {
	p := workload.ProfileByName("523.xalancbmk_r")
	mod, err := core.CompileC(p.Name, workload.Source(p))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultSink = alias.Analyze(mod)
	}
}
