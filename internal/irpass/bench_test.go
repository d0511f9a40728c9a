package irpass_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
	"repro/internal/slice"
)

// genSource returns a generated single-function program of about kb
// kilobytes: main keeps 200 scalar locals, which mem2reg promotes, and
// runs random `vD = vX + vY;` statements, every eighth an if/else that
// assigns one of two locals. Each statement is two promoted loads and a
// store, and each if/else a join of phis, so the optimizer's work grows
// with the source. With scan, a scanf reads every local first, so each
// stays in memory, tainted, and every statement's loads and store are
// ones CPA seals.
func genSource(kb int, scan bool) string {
	const locals = 200
	rng := rand.New(rand.NewSource(1))
	v := func() int { return rng.Intn(locals) }
	var b strings.Builder
	b.WriteString("int main() {\n")
	for i := 0; i < locals; i++ {
		fmt.Fprintf(&b, "\tint v%d = %d;\n", i, i)
	}
	for i := 0; scan && i < locals; i++ {
		fmt.Fprintf(&b, "\tscanf(\"%%d\", &v%d);\n", i)
	}
	for i := 0; b.Len() < kb<<10; i++ {
		if i%8 == 7 {
			fmt.Fprintf(&b, "\tif (v%d > v%d) { v%d = v%d + v%d; } else { v%d = v%d - v%d; }\n",
				v(), v(), v(), v(), v(), v(), v(), v())
			continue
		}
		fmt.Fprintf(&b, "\tv%d = v%d + v%d;\n", v(), v(), v())
	}
	b.WriteString("\treturn v0;\n}\n")
	return b.String()
}

var optimizeSink *ir.Module

// BenchmarkOptimize measures irpass.Optimize on genSource at three
// sizes; each iteration optimizes a fresh, untimed minic compile.
func BenchmarkOptimize(b *testing.B) {
	for _, kb := range []int{26, 50, 98} {
		src := genSource(kb, false)
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mod, err := minic.Compile("gen", src)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				irpass.Optimize(mod)
				optimizeSink = mod
			}
		})
	}
}

var instrumentSink *harden.Report

// BenchmarkInstrument measures the instrument step alone: one
// harden.ApplyFacts under cpa and pythia on genSource with a scanf per
// local, at two sizes. Each size's compile and analysis run once,
// untimed, and each iteration decodes a fresh copy of the compile,
// untimed.
func BenchmarkInstrument(b *testing.B) {
	for _, kb := range []int{26, 55} {
		mod, err := minic.Compile("gen", genSource(kb, true))
		if err != nil {
			b.Fatal(err)
		}
		irpass.Optimize(mod)
		facts := slice.AnalyzeVulnerabilities(mod).Facts()
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []harden.Scheme{harden.CPA, harden.Pythia} {
			b.Run(fmt.Sprintf("%v/%dKB", s, kb), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					mod, err := ir.DecodeModule(enc)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					rep, err := harden.ApplyFacts(mod, s, facts)
					if err != nil {
						b.Fatal(err)
					}
					instrumentSink = rep
				}
			})
		}
	}
}
