// Command pythiac is the compiler driver: it compiles a MiniC source
// file, applies one of the defense schemes, and optionally runs the
// result on the simulated machine.
//
// Usage:
//
//	pythiac -scheme pythia prog.c            # compile + run main()
//	pythiac -scheme cpa -stdin in.txt prog.c # feed stdin from a file
//	pythiac -emit-ir prog.c                  # print the (instrumented) IR
//	pythiac -analyze prog.c                  # vulnerability analysis only
//	pythiac -journal j.jsonl prog.c          # causal run journal (JSONL)
//	pythiac prog.ir                          # run textual IR directly
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/obs"
	"repro/internal/slice"
)

// outs carries the observability flags; exit writes them on every path
// out of main after outs.Start.
var outs obs.Outputs

func main() {
	var (
		schemeName = flag.String("scheme", "pythia", "defense scheme: vanilla, cpa, pythia, dfi")
		emitIR     = flag.Bool("emit-ir", false, "print the instrumented IR instead of running")
		analyze    = flag.Bool("analyze", false, "print the vulnerability analysis instead of running")
		stdinFile  = flag.String("stdin", "", "file whose contents become the program's stdin")
		seed       = flag.Int64("seed", 42, "machine seed (keys, canary RNG)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file (derived from the causal journal)")
		journalOut = flag.String("journal", "", "stream the causal run journal to this file as JSONL")
		metrics    = flag.String("metrics", "", "write a metrics registry dump — counters, gauges, and latency histograms (pipeline.compile.ms, vm.run.ms) — to this file (\"-\" = text to stderr)")
		cacheDir   = flag.String("cache-dir", "", "persist compile/harden artifacts in this directory (content-addressed, shared across processes)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pythiac [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	scheme, ok := core.ParseScheme(*schemeName)
	if !ok {
		fatal("unknown scheme %q", *schemeName)
	}
	outs = obs.Outputs{Journal: *journalOut, Trace: *traceOut, Metrics: *metrics}
	if err := outs.Start(&obs.Session{}); err != nil {
		fmt.Fprintln(os.Stderr, "pythiac:", err)
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}

	// MiniC sources flow through the staged pipeline, so repeated
	// invocations with -cache-dir skip the front-end and the hardening
	// passes entirely; textual .ir files are parsed directly (the
	// printer's output language) and bypass the cache.
	pl := core.DefaultPipeline()
	if *cacheDir != "" {
		if pl, err = core.OpenPipeline(*cacheDir); err != nil {
			fatal("invalid -cache-dir: %v", err)
		}
	}
	isIR := strings.HasSuffix(flag.Arg(0), ".ir")
	compile := func() (*ir.Module, error) {
		if isIR {
			mod, err := ir.Parse(string(src))
			if err != nil {
				return nil, err
			}
			irpass.Optimize(mod)
			return mod, nil
		}
		return pl.Compile(flag.Arg(0), string(src))
	}

	if *analyze {
		mod, err := compile()
		if err != nil {
			fatal("compile: %v", err)
		}
		printAnalysis(mod)
		exit(0)
	}

	var prog *core.Program
	if isIR {
		mod, err := compile()
		if err != nil {
			fatal("compile: %v", err)
		}
		prot, err := core.Protect(mod, scheme)
		if err != nil {
			fatal("protect: %v", err)
		}
		prog = &core.Program{Mod: mod, Protection: prot, Seed: *seed}
	} else {
		if prog, err = pl.Build(flag.Arg(0), string(src), scheme); err != nil {
			fatal("%v", err)
		}
		prog.Seed = *seed
	}

	if *emitIR {
		fmt.Print(prog.Mod.String())
		exit(0)
	}

	stdin := ""
	if *stdinFile != "" {
		b, err := os.ReadFile(*stdinFile)
		if err != nil {
			fatal("%v", err)
		}
		stdin = string(b)
	}
	res, err := prog.Run(stdin)
	if err != nil {
		fatal("run: %v", err)
	}
	os.Stdout.Write(res.Stdout)
	c := res.Counters
	fmt.Fprintf(os.Stderr, "\n--- %s / %v ---\n", flag.Arg(0), scheme)
	fmt.Fprintf(os.Stderr, "instructions: %d   cycles: %.0f   IPC: %.2f\n", c.Instrs, c.Cycles, c.IPC())
	fmt.Fprintf(os.Stderr, "PA ops: %d   loads: %d   stores: %d   LLC misses: %d\n", c.PAInstrs, c.Loads, c.Stores, c.LLCMisses)
	fmt.Fprintf(os.Stderr, "binary size: %d bytes   static defense instrs: %d\n", core.BinarySize(prog.Mod), prog.Protection.PAInstrs())
	if res.Fault != nil {
		fmt.Fprintf(os.Stderr, "FAULT: %v\n", res.Fault)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "exit value: %d\n", int64(res.Ret))
	exit(0)
}

func printAnalysis(mod *ir.Module) {
	vr := core.Analyze(mod)
	fmt.Printf("module %s: %d defined functions, %d instructions\n",
		mod.Name, len(mod.Defined()), mod.NumInstrs())
	d := vr.Distribution()
	fmt.Printf("input channels: %d sites (print %.1f%%, move/copy %.1f%%)\n",
		d.Total, d.Percent(ir.KindPrint), d.Percent(ir.KindMoveCopy))
	fmt.Printf("memory roots: %d   CPA-vulnerable: %d   Pythia-refined: %d\n",
		vr.TotalRoots, len(vr.CPAVars), len(vr.PythiaVars))
	var dir, ind, un int
	for _, b := range vr.Branches {
		switch b.Class {
		case slice.BranchDirect:
			dir++
		case slice.BranchIndirect:
			ind++
		default:
			un++
		}
	}
	fmt.Printf("branches: %d total — %d direct, %d indirect, %d unaffected\n",
		len(vr.Branches), dir, ind, un)
	bounds := harden.EstimateBounds(vr)
	fmt.Printf("Eq.1 (CPA) bound: %.0f instrs   Eq.5 (Pythia) bound: %.0f instrs\n",
		bounds.CPABound, bounds.PythiaBound)
	for _, b := range vr.Branches {
		secDFI := vr.Analysis.SecuredBy(b, slice.ModeDFI)
		secPy := vr.Analysis.SecuredBy(b, slice.ModeFull)
		if !secDFI || !secPy {
			fmt.Printf("  branch @%s#%d [%s]: dfi=%v pythia=%v (ICs: %d)\n",
				b.Fn.FName, b.Branch.ID, b.Class, secDFI, secPy, len(b.Ground.ICs))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pythiac: "+format+"\n", args...)
	exit(1)
}

// exit writes the observability outputs and ends the process; a failed
// write turns a clean exit into exit 1.
func exit(code int) {
	if err := outs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythiac:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}
