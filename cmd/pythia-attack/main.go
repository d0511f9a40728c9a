// Command pythia-attack mounts the paper's control-flow-bending attacks
// (including the three §2.2/§3.1 motivating examples) against a chosen
// defense scheme and reports whether each attack bent the control flow
// or was detected — and by which mechanism.
//
// Usage:
//
//	pythia-attack                       # full matrix: corpus x schemes
//	pythia-attack -case pointer-dualism # one case, all schemes
//	pythia-attack -scheme pythia        # all cases, one scheme
//	pythia-attack -json                 # Outcome matrix as one JSON document
//	pythia-attack -forensics            # flight-recorder window under each detection
//	pythia-attack -metrics m.json       # metrics registry dump ("-" = text to stderr)
//	pythia-attack -journal j.jsonl      # causal run journal (JSONL)
//	pythia-attack -list
//
// Every attacked machine runs with the fault flight recorder armed, so a
// detection carries the last-N executed instructions, the faulting
// address, and its memory segment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
)

// outs carries the observability flags; exit writes them on every path
// out of main after outs.Start.
var outs obs.Outputs

func main() {
	var (
		caseName   = flag.String("case", "", "run only this attack case")
		schemeName = flag.String("scheme", "", "run only this scheme")
		list       = flag.Bool("list", false, "list attack cases and exit")
		jsonOut    = flag.Bool("json", false, "emit the outcome matrix as one JSON document")
		forensics  = flag.Bool("forensics", false, "print the flight-recorder report under each detection")
		metrics    = flag.String("metrics", "", "write a metrics registry dump — counters, gauges, and latency histograms (vm.run.ms quantiles) — to this file (\"-\" = text to stderr)")
		journalOut = flag.String("journal", "", "stream the causal run journal to this file as JSONL")
	)
	flag.Parse()

	if *list {
		for _, c := range attack.Corpus() {
			fmt.Printf("%-26s %s\n", c.Name, c.Kind)
		}
		return
	}

	cases := attack.Corpus()
	if *caseName != "" {
		c := attack.CaseByName(*caseName)
		if c == nil {
			fmt.Fprintf(os.Stderr, "pythia-attack: unknown case %q\n", *caseName)
			os.Exit(2)
		}
		cases = []attack.Case{*c}
	}
	schemes := core.Schemes
	if *schemeName != "" {
		s, ok := core.ParseScheme(*schemeName)
		if !ok {
			fmt.Fprintf(os.Stderr, "pythia-attack: unknown scheme %q\n", *schemeName)
			os.Exit(2)
		}
		schemes = []core.Scheme{s}
	}

	outs = obs.Outputs{Journal: *journalOut, Metrics: *metrics}
	if err := outs.Start(&obs.Session{}); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-attack:", err)
		flag.Usage()
		os.Exit(2)
	}

	var outcomes []jsonOutcome
	if !*jsonOut {
		fmt.Printf("%-26s %-9s %-8s %-22s %s\n", "case", "scheme", "benign", "attack", "detecting fault")
	}
	exitCode := 0
	for _, c := range cases {
		c := c
		for _, s := range schemes {
			o, err := attack.Run(&c, s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pythia-attack: %s/%v: %v\n", c.Name, s, err)
				exit(1)
			}
			if *jsonOut {
				outcomes = append(outcomes, toJSON(o))
			} else {
				faultDesc := "-"
				if o.Fault != nil {
					faultDesc = o.Fault.Error()
					if len(faultDesc) > 60 {
						faultDesc = faultDesc[:60] + "..."
					}
				}
				fmt.Printf("%-26s %-9v %-8v %-22v %s\n", c.Name, s, o.Benign, o.Attack, faultDesc)
				if *forensics && o.Fault != nil && o.Fault.Forensics != nil {
					o.Fault.Forensics.Render(os.Stdout, "    ")
				}
			}
			// A protected scheme letting the attack bend is the signal
			// the harness exists to expose; reflect it in the exit code.
			if s == core.SchemePythia && o.Attack == attack.VerdictBent {
				exitCode = 1
			}
		}
	}
	if *jsonOut {
		out, err := json.MarshalIndent(struct {
			Outcomes []jsonOutcome `json:"outcomes"`
		}{outcomes}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pythia-attack:", err)
			exit(1)
		}
		fmt.Println(string(out))
	}
	exit(exitCode)
}

// exit writes the observability outputs and ends the process; a failed
// write turns a clean exit into exit 1.
func exit(code int) {
	if err := outs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-attack:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// jsonOutcome is one row of the -json matrix.
type jsonOutcome struct {
	Case      string           `json:"case"`
	Scheme    string           `json:"scheme"`
	Benign    string           `json:"benign"`
	Attack    string           `json:"attack"`
	Detector  string           `json:"detector,omitempty"` // fault kind, when detected
	Fault     string           `json:"fault,omitempty"`
	Forensics *obs.FaultReport `json:"forensics,omitempty"`
	PAUsed    int64            `json:"pa_used"`
}

func toJSON(o *attack.Outcome) jsonOutcome {
	j := jsonOutcome{
		Case:   o.Case,
		Scheme: fmt.Sprintf("%v", o.Scheme),
		Benign: o.Benign.String(),
		Attack: o.Attack.String(),
		PAUsed: o.PAUsed,
	}
	if o.Fault != nil {
		j.Detector = o.Fault.Kind.String()
		j.Fault = o.Fault.Error()
		j.Forensics = o.Fault.Forensics
	}
	return j
}
