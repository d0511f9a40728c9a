package fuzz

// Triage turns a raw oracle divergence into an actionable finding: the
// input is shrunk to a minimal reproducer, the minimized input's full
// verdict matrix is recorded, a flight-recorder replay attaches fault
// forensics (for a bypass, the forensics of the scheme that *does*
// detect it — the differential evidence), and the finding renders a
// ready-to-paste attack.Case candidate for promotion into the
// hand-written corpus.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/vm"
)

// minimizeBudget bounds predicate evaluations per finding; each
// evaluation is two program runs.
const minimizeBudget = 256

// Finding is one triaged oracle divergence.
type Finding struct {
	Class  string `json:"class"`
	Target string `json:"target"`
	Scheme string `json:"scheme"`
	// Input is the minimized reproducer; InputQ is its quoted form for
	// human-readable JSON.
	Input  []byte `json:"-"`
	InputQ string `json:"input"`
	// Exec is the evaluation count at discovery; RawLen the
	// pre-minimization input length.
	Exec   int `json:"exec"`
	RawLen int `json:"raw_len"`
	// Verdicts is the minimized input's full matrix, in scheme order
	// (vanilla, cpa, pythia, dfi).
	Verdicts [4]string `json:"verdicts"`
	// Forensics is the rendered flight-recorder report of the replayed
	// detecting (or crashing) run, when one exists.
	Forensics string `json:"forensics,omitempty"`
	// Site is the detecting check's stable site id (harden.AssignSites)
	// from the replayed run's fault, when known — the join key into the
	// defense-coverage report's per-site rows.
	Site string `json:"site,omitempty"`

	benign string
	src    string
}

// Key identifies the finding class instance for deduplication and CI
// gating: class/target/scheme.
func (fd *Finding) Key() string {
	return fd.Class + "/" + fd.Target + "/" + fd.Scheme
}

// pair evaluates input under vanilla and scheme index si only — the
// minimizer's cheap predicate.
func (ps *programs) pair(si int, input []byte) (string, error) {
	var vd [2]verdict
	for k, idx := range [2]int{0, si} {
		res, err := runInput(ps[idx], input, nil, 0)
		if err != nil {
			return "", err
		}
		vd[k] = classifyRun(res)
	}
	return classifyPair(vd[0], vd[1]), nil
}

// triage minimizes and annotates a fresh finding.
func (f *fuzzer) triage(st *tstate, si int, class string, input []byte, _ *evalOut) (*Finding, error) {
	t := &st.target
	var perr error
	pred := func(cand []byte) bool {
		c, err := st.progs.pair(si, cand)
		if err != nil {
			perr = err
			return false
		}
		return c == class
	}
	min := Minimize(input, pred, minimizeBudget)
	if perr != nil {
		return nil, perr
	}

	fin, err := st.progs.eval(min, f.covs[0])
	if err != nil {
		return nil, err
	}
	fd := &Finding{
		Class:  class,
		Target: t.Name,
		Scheme: schemes[si].String(),
		Input:  min,
		InputQ: strconv.Quote(string(min)),
		Exec:   f.execs,
		RawLen: len(input),
		benign: t.Benign,
		src:    t.Source,
	}
	for i := range schemes {
		fd.Verdicts[i] = fin.verdicts[i].String()
	}
	fd.Forensics, fd.Site = forensicsFor(st.progs, fin)
	return fd, nil
}

// forensicsFor replays the most informative run with the flight
// recorder armed: the first scheme that detects the minimized input
// (for a bypass, the defense that works where the finding's scheme
// fails), else the first that crashes. The second return is the
// detecting check's stable site id, when the fault carries one.
func forensicsFor(ps *programs, fin *evalOut) (string, string) {
	pick := -1
	for i := 1; i < len(schemes); i++ {
		if v := fin.verdicts[i]; !v.hang && v.v == attack.VerdictDetected {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i := 1; i < len(schemes); i++ {
			if v := fin.verdicts[i]; !v.hang && v.v == attack.VerdictCrashed {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return "", ""
	}
	return ps.replay(pick, fin.input)
}

// Report renders the finding as a human-readable triage block.
func (fd *Finding) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "finding   %s\n", fd.Key())
	fmt.Fprintf(&b, "input     %s (%d bytes, minimized from %d)\n", fd.InputQ, len(fd.Input), fd.RawLen)
	fmt.Fprintf(&b, "found at  exec %d\n", fd.Exec)
	b.WriteString("verdicts ")
	for i, s := range schemes {
		fmt.Fprintf(&b, " %v=%s", s, fd.Verdicts[i])
	}
	b.WriteByte('\n')
	if fd.Site != "" {
		fmt.Fprintf(&b, "site      %s\n", fd.Site)
	}
	if fd.Forensics != "" {
		b.WriteString("forensics of the detecting run:\n")
		b.WriteString(fd.Forensics)
	}
	return b.String()
}

// CaseCandidate renders a ready-to-paste attack.Case literal promoting
// the reproducer into the hand-written corpus. BenignRet and Kind need
// human confirmation before merging.
func (fd *Finding) CaseCandidate() string {
	src := fd.src
	if src == "" {
		if t := TargetByName(fd.Target); t != nil {
			src = t.Source
		}
	}
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "\tName: %q,\n", "fuzz-"+fd.Target+"-"+fd.Class)
	if src != "" && !strings.Contains(src, "`") {
		fmt.Fprintf(&b, "\tSource: `%s`,\n", src)
	} else {
		fmt.Fprintf(&b, "\tSource: %q,\n", src)
	}
	fmt.Fprintf(&b, "\tBenign:    %q,\n", fd.benign)
	fmt.Fprintf(&b, "\tMalicious: %s,\n", fd.InputQ)
	fmt.Fprintf(&b, "\tBenignRet: 0, // verify before merging\n")
	fmt.Fprintf(&b, "\tKind:      %q,\n", "fuzz: "+fd.Class+" of "+fd.Scheme)
	b.WriteString("},\n")
	return b.String()
}

// dirName is the finding's filesystem-safe directory name.
func (fd *Finding) dirName() string {
	return fd.Class + "-" + fd.Target + "-" + fd.Scheme
}

// WriteFinding persists the finding under dir/<class-target-scheme>/:
// the reproducer in go-fuzz-v1 format, the triage report, and the
// attack.Case candidate. Returns the finding's directory.
func WriteFinding(dir string, fd *Finding) (string, error) {
	fdir := filepath.Join(dir, fd.dirName())
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return "", err
	}
	files := map[string][]byte{
		"input":      EncodeSeed(fd.Input),
		"report.txt": []byte(fd.Report()),
		"case.txt":   []byte(fd.CaseCandidate()),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(fdir, name), body, 0o644); err != nil {
			return "", err
		}
	}
	return fdir, nil
}

// LoadKnown reads a known-findings file: one finding key per line,
// blank lines and #-comments ignored. The CI smoke job fails only on
// keys absent from this set, so *expected* divergences (the DFI
// pointer-arithmetic bypass, notably) don't fail the build.
func LoadKnown(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	known := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		known[line] = true
	}
	return known, sc.Err()
}

// ReplayMatrix runs one reproducer input through the full scheme matrix
// on fresh programs — the -repro path. It returns one outcome line per
// scheme plus the classified findings.
type ReplayOutcome struct {
	Scheme  core.Scheme
	Verdict string
	Class   string // finding class vs vanilla, "" on agreement
	// Forensics is the flight-recorder report of a detecting or
	// crashing run, when requested.
	Forensics string
}

// Replay evaluates input against the target under every scheme and
// classifies each defense against the vanilla ground truth. With
// forensics set, detecting and crashing runs are replayed with the
// flight recorder armed.
func Replay(t *Target, input []byte, forensics bool) ([]ReplayOutcome, error) {
	ps, err := buildPrograms(t)
	if err != nil {
		return nil, err
	}
	out, err := ps.eval(input, vm.NewCoverage())
	if err != nil {
		return nil, err
	}
	res := make([]ReplayOutcome, len(schemes))
	for i, s := range schemes {
		res[i] = ReplayOutcome{Scheme: s, Verdict: out.verdicts[i].String()}
		if i > 0 {
			res[i].Class = classifyPair(out.verdicts[0], out.verdicts[i])
		}
		v := out.verdicts[i]
		if forensics && !v.hang && (v.v == attack.VerdictDetected || v.v == attack.VerdictCrashed) {
			res[i].Forensics, _ = ps.replay(i, input)
		}
	}
	return res, nil
}
