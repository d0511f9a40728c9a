package main

import (
	_ "embed"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The expected sweep output: verbatim copies of the committed
// results_full.txt and testdata/results_quick.txt, frozen with the
// benchmark so that a change to the program cannot also move its answer
// key.
var (
	//go:embed expected/results_full.txt
	fullGolden string
	//go:embed expected/results_quick.txt
	quickGolden string
)

// sections splits rendered tables ("== id: title" header, rows, notes,
// blank line) into one text per experiment id, each ending in a newline.
func sections(doc string) map[string]string {
	out := map[string]string{}
	for _, block := range strings.Split(doc, "\n\n") {
		block = strings.Trim(block, "\n")
		if !strings.HasPrefix(block, "== ") {
			continue
		}
		id, _, ok := strings.Cut(strings.TrimPrefix(block, "== "), ":")
		if ok {
			out[id] = block + "\n"
		}
	}
	return out
}

// modeled holds the sweep's headline modeled results, parsed from the
// fig4a and fig4b average notes.
type modeled struct {
	PythiaOverheadPct, CPAOverheadPct, PythiaSizePct float64
}

var averageNote = regexp.MustCompile(`average: CPA ([0-9.]+)%, Pythia ([0-9.]+)%`)

func parseAverage(table string) (cpa, pythia float64, err error) {
	m := averageNote.FindStringSubmatch(table)
	if m == nil {
		return 0, 0, fmt.Errorf("no average note in table")
	}
	if cpa, err = strconv.ParseFloat(m[1], 64); err != nil {
		return 0, 0, err
	}
	pythia, err = strconv.ParseFloat(m[2], 64)
	return cpa, pythia, err
}

func parseModeled(fig4a, fig4b string) (modeled, error) {
	var m modeled
	var err error
	if m.CPAOverheadPct, m.PythiaOverheadPct, err = parseAverage(fig4a); err != nil {
		return m, fmt.Errorf("fig4a: %w", err)
	}
	if _, m.PythiaSizePct, err = parseAverage(fig4b); err != nil {
		return m, fmt.Errorf("fig4b: %w", err)
	}
	return m, nil
}

// schemes is the serve catalogue's scheme list, in the attacks table's
// column order.
var schemes = []string{"vanilla", "cpa", "pythia", "dfi"}

// attackVerdicts is the expected outcome of each corpus case's malicious
// input per scheme, transcribed by hand from the attacks table of
// results_full.txt. A benign input is always expected to run clean, and
// so is every generated program under every scheme.
var attackVerdicts = map[string][4]string{
	"privesc-string-overflow":  {"bent", "detected(pac)", "detected(canary)", "bent"},
	"proftpd-sreplace":         {"bent", "detected(pac)", "detected(canary)", "bent"},
	"pointer-dualism":          {"bent", "detected(pac)", "detected(canary)", "detected(dfi)"},
	"heap-overflow":            {"bent", "detected(pac)", "clean", "bent"},
	"interprocedural-overflow": {"bent", "detected(pac)", "detected(canary)", "detected(dfi)"},
	"scanf-scalar-taint":       {"bent", "detected(pac)", "detected(canary)", "detected(dfi)"},
	"callee-manual-copy":       {"bent", "detected(pac)", "detected(canary)", "detected(dfi)"},
	"dfi-blindspot":            {"bent", "detected(pac)", "detected(canary)", "bent"},
}
