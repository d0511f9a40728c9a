// Command pythia-fuzz is the coverage-guided differential attack
// fuzzer: it mutates inputs against the attack-corpus programs (or a
// workload profile), steers by branch-edge coverage from the VM, and
// reports every input whose verdict matrix diverges from the vanilla
// ground truth — bypasses, missed bends, false-positive candidates,
// and divergences — each minimized to a reproducer with forensics.
//
// Usage:
//
//	pythia-fuzz -quick -seed 1 -execs 2000    # deterministic smoke run
//	pythia-fuzz -target dfi-blindspot -t 30s  # wall-clock budget, one target
//	pythia-fuzz -profile json-parse           # fuzz a workload benchmark
//	pythia-fuzz -out findings/                # persist reproducer+report+case per finding
//	pythia-fuzz -known testdata/fuzz_known.txt # CI gate: fail only on NEW finding keys
//	pythia-fuzz -export-seeds seeds/          # write the hand-written corpus as seed files
//	pythia-fuzz -journal j.jsonl              # causal run journal (JSONL)
//	pythia-fuzz -repro findings/bypass-dfi-blindspot-dfi/input -target dfi-blindspot -forensics
//	pythia-fuzz -list
//
// A fixed -seed with an -execs budget is fully deterministic: corpus
// digest, finding keys, and reproducer bytes are identical across runs
// and across -parallel values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
)

// outs carries the observability flags; exit writes them on every path
// out of main after outs.Start.
var outs obs.Outputs

// usageError prints the diagnostic plus usage and exits 2 — the flag
// validation convention shared with the other CLIs.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pythia-fuzz: "+format+"\n", args...)
	flag.Usage()
	exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pythia-fuzz:", err)
	exit(1)
}

// exit writes the observability outputs and ends the process; a failed
// write turns a clean exit into exit 1.
func exit(code int) {
	if err := outs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-fuzz:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

func main() {
	var (
		seed        = flag.Int64("seed", 1, "RNG seed driving the whole run")
		execs       = flag.Int("execs", 0, "evaluation budget (0 = library default in exec mode)")
		duration    = flag.Duration("t", 0, "wall-clock budget (nondeterministic; 0 = exec budget only)")
		parallel    = flag.Int("parallel", 0, "evaluation worker count (0 = GOMAXPROCS)")
		batch       = flag.Int("batch", 0, "mutants per target per round (0 = default)")
		quick       = flag.Bool("quick", false, "fuzz the 3-target smoke subset")
		targetName  = flag.String("target", "", "fuzz only this attack-corpus target (also selects the -repro target)")
		profileName = flag.String("profile", "", "fuzz this workload profile's generated benchmark instead of the corpus")
		benignOnly  = flag.Bool("benign-seeds", false, "seed only benign inputs, so attacks must be rediscovered by mutation")
		outDir      = flag.String("out", "", "write each finding (reproducer, report, case candidate) under this directory")
		exportDir   = flag.String("export-seeds", "", "export the targets' seed corpus under this directory and exit")
		reproPath   = flag.String("repro", "", "replay this reproducer file through the scheme matrix and exit")
		forensics   = flag.Bool("forensics", false, "with -repro: render the flight-recorder report of detecting runs")
		knownPath   = flag.String("known", "", "known-findings file; exit 1 on new bypass/missed/false-positive keys")
		list        = flag.Bool("list", false, "list fuzz targets and exit")
		jsonOut     = flag.Bool("json", false, "emit the run summary as one JSON document")
		verbose     = flag.Bool("v", false, "log per-round progress to stderr")
		metrics     = flag.String("metrics", "", "write a metrics registry dump — counters, gauges, and the fuzz.round.ms / vm.run.ms latency histograms — to this file (\"-\" = text to stderr)")
		journalOut  = flag.String("journal", "", "stream the causal run journal to this file as JSONL")
		serveAddr   = flag.String("serve", "", "serve live observability HTTP endpoints on this address during the run")
		cacheDir    = flag.String("cache-dir", "", "persist compile/harden artifacts in this directory (content-addressed, shared across processes)")
	)
	flag.Parse()

	if *targetName != "" && *profileName != "" {
		usageError("-target and -profile are mutually exclusive")
	}
	if *execs < 0 {
		usageError("invalid -execs %d", *execs)
	}
	if *cacheDir != "" {
		pl, err := core.OpenPipeline(*cacheDir)
		if err != nil {
			usageError("invalid -cache-dir: %v", err)
		}
		fuzz.UsePipeline(pl)
	}

	if *list {
		for _, t := range fuzz.Targets() {
			fmt.Printf("%-26s %d seeds\n", t.Name, len(t.Seeds))
		}
		return
	}

	targets := fuzz.Targets()
	switch {
	case *profileName != "":
		t, err := fuzz.ProfileTarget(*profileName)
		if err != nil {
			usageError("%v", err)
		}
		targets = []fuzz.Target{*t}
	case *targetName != "":
		t := fuzz.TargetByName(*targetName)
		if t == nil {
			usageError("unknown target %q (see -list)", *targetName)
		}
		targets = []fuzz.Target{*t}
	case *quick:
		targets = fuzz.QuickTargets()
	}

	if *exportDir != "" {
		n, err := fuzz.ExportSeeds(*exportDir, targets)
		if err != nil {
			fail(err)
		}
		fmt.Printf("exported %d seed files for %d targets under %s\n", n, len(targets), *exportDir)
		return
	}

	if *reproPath != "" {
		if len(targets) != 1 {
			usageError("-repro needs -target or -profile to name the victim program")
		}
		repro(&targets[0], *reproPath, *forensics)
		return
	}

	var known map[string]bool
	if *knownPath != "" {
		var err error
		if known, err = fuzz.LoadKnown(*knownPath); err != nil {
			usageError("invalid -known: %v", err)
		}
	}

	// Fuzz rounds and findings become journal spans and points; -serve
	// adds the server's /progress endpoint.
	outs = obs.Outputs{Journal: *journalOut, Metrics: *metrics, Serve: *serveAddr}
	if err := outs.Start(&obs.Session{}); err != nil {
		usageError("%v", err)
	}

	opts := fuzz.Options{
		Seed:            *seed,
		Execs:           *execs,
		Duration:        *duration,
		Parallel:        *parallel,
		Batch:           *batch,
		BenignSeedsOnly: *benignOnly,
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	res, err := fuzz.Run(targets, opts)
	if err != nil {
		fail(err)
	}

	if *outDir != "" {
		for _, fd := range res.Findings {
			fdir, err := fuzz.WriteFinding(*outDir, fd)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", fdir)
		}
	}

	if *jsonOut {
		out, err := json.MarshalIndent(struct {
			Targets  int             `json:"targets"`
			Execs    int             `json:"execs"`
			Rounds   int             `json:"rounds"`
			Corpus   int             `json:"corpus"`
			Edges    int             `json:"edges"`
			Digest   string          `json:"digest"`
			Elapsed  float64         `json:"elapsed_ms"`
			Findings []*fuzz.Finding `json:"findings"`
		}{
			Targets: len(targets), Execs: res.Execs, Rounds: res.Rounds,
			Corpus: res.Corpus, Edges: res.Edges,
			Digest:  fmt.Sprintf("%016x", res.Digest),
			Elapsed: float64(res.Elapsed.Nanoseconds()) / 1e6,
			Findings: func() []*fuzz.Finding {
				if res.Findings == nil {
					return []*fuzz.Finding{}
				}
				return res.Findings
			}(),
		}, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("targets %d  execs %d  rounds %d  corpus %d  edges %d  digest %016x  elapsed %s\n",
			len(targets), res.Execs, res.Rounds, res.Corpus, res.Edges, res.Digest,
			res.Elapsed.Round(time.Millisecond))
		fmt.Printf("findings (%d):\n", len(res.Findings))
		for _, fd := range res.Findings {
			fmt.Printf("  %-36s input %s (%d bytes, exec %d)\n", fd.Key(), fd.InputQ, len(fd.Input), fd.Exec)
		}
	}

	exitCode := 0
	if known != nil {
		for _, fd := range res.Findings {
			if known[fd.Key()] {
				continue
			}
			gate := fd.Class != "divergence"
			tag := "warning"
			if gate {
				tag = "FAIL"
				exitCode = 1
			}
			fmt.Fprintf(os.Stderr, "pythia-fuzz: %s: new finding %s not in %s\n", tag, fd.Key(), *knownPath)
		}
	}
	exit(exitCode)
}

// repro replays one reproducer file through the full scheme matrix.
func repro(t *fuzz.Target, path string, withForensics bool) {
	input, err := fuzz.ReadSeedFile(path)
	if err != nil {
		usageError("invalid -repro: %v", err)
	}
	outs, err := fuzz.Replay(t, input, withForensics)
	if err != nil {
		fail(err)
	}
	fmt.Printf("repro %s < %s (%d bytes)\n", t.Name, path, len(input))
	fmt.Printf("%-9s %-9s %s\n", "scheme", "verdict", "class")
	for _, o := range outs {
		class := o.Class
		if class == "" {
			class = "-"
		}
		fmt.Printf("%-9v %-9s %s\n", o.Scheme, o.Verdict, class)
		if o.Forensics != "" {
			fmt.Print(o.Forensics)
		}
	}
}
