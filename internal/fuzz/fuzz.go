package fuzz

// The fuzzing loop. Determinism is the design constraint: a fixed
// -seed with an exec-count budget must produce bit-identical corpora
// and findings regardless of -parallel, so CI can gate on finding keys
// and the determinism tests can compare digests. The loop therefore
// runs in *rounds*: each round deterministically generates one batch of
// mutants per target from seeded RNGs, evaluates the whole batch on the
// worker pool into index-slotted results, and folds the results back
// sequentially in batch order. Parallelism changes only who computes a
// slot, never the order slots are folded.

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed drives every RNG in the run.
	Seed int64
	// Execs is the evaluation budget (seed evaluations included). When
	// zero and Duration is zero, a default budget of 2000 applies.
	Execs int
	// Duration bounds wall-clock time instead of (or in addition to)
	// Execs. Duration-bounded runs are NOT deterministic across machines.
	Duration time.Duration
	// Parallel is the worker count; 0 means GOMAXPROCS.
	Parallel int
	// Batch is the number of mutants generated per target per round;
	// 0 means 24.
	Batch int
	// BenignSeedsOnly drops every seed but the first (benign) one, so
	// rediscovering an attack proves the mutation engine found it rather
	// than replayed it.
	BenignSeedsOnly bool
	// Logf, when non-nil, receives one line per round and per finding.
	Logf func(format string, args ...any)
}

// Result summarizes a fuzzing run.
type Result struct {
	Execs    int           `json:"execs"`
	Rounds   int           `json:"rounds"`
	Corpus   int           `json:"corpus"`
	Edges    int           `json:"edges"`
	Findings []*Finding    `json:"findings"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// Digest fingerprints the final corpus (targets in order, entries in
	// discovery order) — the determinism tests' comparison point.
	Digest uint64 `json:"digest"`
}

// tstate is the per-target evolving state.
type tstate struct {
	target Target
	progs  *programs
	mut    *Mutator
	dict   [][]byte
	corpus [][]byte
	virgin [vm.CoverSize]bool
	edges  int
	seen   map[uint64]bool
}

// job is one evaluation slot of a round.
type job struct {
	ti    int
	input []byte
}

// Run fuzzes the targets under the options.
func Run(targets []Target, opts Options) (*Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fuzz: no targets")
	}
	if opts.Execs == 0 && opts.Duration == 0 {
		opts.Execs = 2000
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.GOMAXPROCS(0)
	}
	if opts.Batch <= 0 {
		opts.Batch = 24
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	states := make([]*tstate, len(targets))
	for i, t := range targets {
		t := t
		seeds := t.Seeds
		if opts.BenignSeedsOnly && len(seeds) > 1 {
			seeds = seeds[:1]
		}
		t.Seeds = seeds
		ps, err := buildPrograms(&t)
		if err != nil {
			return nil, err
		}
		states[i] = &tstate{
			target: t,
			progs:  ps,
			mut:    NewMutator(opts.Seed ^ int64(covSeed(t.Name))),
			dict:   Dictionary(&t),
			seen:   make(map[uint64]bool),
		}
	}

	covs := make([]*vm.Coverage, opts.Parallel)
	for i := range covs {
		covs[i] = vm.NewCoverage()
	}

	f := &fuzzer{
		opts:     opts,
		logf:     logf,
		states:   states,
		covs:     covs,
		findings: make(map[string]*Finding),
		start:    time.Now(),
		metrics:  obs.CurrentMetrics(),
	}
	if s := obs.Current(); s != nil {
		f.progress = s.Progress
	}
	if f.progress != nil {
		f.progress.Begin(0, 1)
		defer f.progress.Finish()
	}
	return f.run()
}

type fuzzer struct {
	opts     Options
	logf     func(string, ...any)
	states   []*tstate
	covs     []*vm.Coverage // one per worker
	findings map[string]*Finding
	order    []*Finding
	execs    int
	rounds   int
	start    time.Time
	metrics  *obs.Registry
	progress *obs.Progress
}

func (f *fuzzer) run() (*Result, error) {
	// Round 0: the seed corpus itself.
	var seedJobs []job
	for ti, st := range f.states {
		for _, s := range st.target.Seeds {
			seedJobs = append(seedJobs, job{ti: ti, input: append([]byte(nil), s...)})
		}
	}
	if err := f.round(seedJobs); err != nil {
		return nil, err
	}

	for !f.done() {
		var jobs []job
		for ti, st := range f.states {
			if len(st.corpus) == 0 {
				continue
			}
			for n := 0; n < f.opts.Batch; n++ {
				base := st.corpus[st.mut.rng.Intn(len(st.corpus))]
				donor := st.corpus[st.mut.rng.Intn(len(st.corpus))]
				jobs = append(jobs, job{ti: ti, input: st.mut.Mutate(base, donor, st.dict)})
			}
		}
		if len(jobs) == 0 {
			return nil, fmt.Errorf("fuzz: no target produced a viable seed corpus")
		}
		if budget := f.opts.Execs; budget > 0 && len(jobs) > budget-f.execs {
			jobs = jobs[:budget-f.execs]
		}
		if err := f.round(jobs); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Execs:    f.execs,
		Rounds:   f.rounds,
		Findings: f.order,
		Elapsed:  time.Since(f.start),
	}
	h := fnv.New64a()
	for _, st := range f.states {
		res.Corpus += len(st.corpus)
		res.Edges += st.edges
		h.Write([]byte(st.target.Name))
		for _, in := range st.corpus {
			fmt.Fprintf(h, "#%d:", len(in))
			h.Write(in)
		}
	}
	res.Digest = h.Sum64()
	return res, nil
}

func (f *fuzzer) done() bool {
	if f.opts.Execs > 0 && f.execs >= f.opts.Execs {
		return true
	}
	if f.opts.Duration > 0 && time.Since(f.start) >= f.opts.Duration {
		return true
	}
	return false
}

// round evaluates jobs on the pool and folds results in job order.
func (f *fuzzer) round(jobs []job) error {
	f.rounds++
	id := fmt.Sprintf("round-%d", f.rounds)
	defer obs.TraceSpan(id, "fuzz")()
	if f.progress != nil {
		f.progress.StartExperiment(id, 1)
	}
	rstart := time.Now()

	results := make([]*evalOut, len(jobs))
	errs := make([]error, len(jobs))
	feed := make(chan int)
	done := make(chan struct{})
	for _, cov := range f.covs {
		go func() {
			for i := range feed {
				results[i], errs[i] = f.states[jobs[i].ti].progs.eval(jobs[i].input, cov)
			}
			done <- struct{}{}
		}()
	}
	for i := range jobs {
		feed <- i
	}
	close(feed)
	for range f.covs {
		<-done
	}

	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		if err := f.fold(j, results[i]); err != nil {
			return err
		}
	}

	if f.metrics != nil {
		f.metrics.Histo("fuzz.round.ms").Observe(float64(time.Since(rstart).Nanoseconds()) / 1e6)
		f.metrics.Gauge("fuzz.execs_per_sec").Set(float64(f.execs) / time.Since(f.start).Seconds())
		corpus, edges := 0, 0
		for _, st := range f.states {
			corpus += len(st.corpus)
			edges += st.edges
		}
		f.metrics.Gauge("fuzz.corpus").Set(float64(corpus))
		f.metrics.Gauge("fuzz.edges").Set(float64(edges))
	}
	if f.progress != nil {
		f.progress.FinishExperiment(id, 1, time.Since(rstart))
	}
	f.logf("round %d: execs=%d corpus=%d edges=%d findings=%d",
		f.rounds, f.execs, f.corpusSize(), f.edgeCount(), len(f.order))
	return nil
}

func (f *fuzzer) corpusSize() int {
	n := 0
	for _, st := range f.states {
		n += len(st.corpus)
	}
	return n
}

func (f *fuzzer) edgeCount() int {
	n := 0
	for _, st := range f.states {
		n += st.edges
	}
	return n
}

// fold integrates one evaluation: coverage growth admits the input to
// the corpus, oracle divergence opens a finding.
func (f *fuzzer) fold(j job, out *evalOut) error {
	f.execs++
	if f.metrics != nil {
		f.metrics.Add("fuzz.execs", 1)
	}
	st := f.states[j.ti]

	fresh := 0
	for _, idx := range out.hits {
		if !st.virgin[idx] {
			st.virgin[idx] = true
			fresh++
		}
	}
	st.edges += fresh
	if fresh > 0 {
		ih := fnv.New64a()
		ih.Write(j.input)
		if sum := ih.Sum64(); !st.seen[sum] {
			st.seen[sum] = true
			st.corpus = append(st.corpus, j.input)
		}
	}

	for si := 1; si < len(schemes); si++ {
		class := classifyPair(out.verdicts[0], out.verdicts[si])
		if class == "" {
			continue
		}
		key := class + "/" + st.target.Name + "/" + schemes[si].String()
		if _, dup := f.findings[key]; dup {
			continue
		}
		fd, err := f.triage(st, si, class, j.input, out)
		if err != nil {
			return err
		}
		f.findings[key] = fd
		f.order = append(f.order, fd)
		if f.metrics != nil {
			f.metrics.Add("fuzz.findings."+class, 1)
		}
		obs.Point("fuzz.finding", "fuzz", map[string]string{
			"key": key, "class": class, "site": fd.Site,
		})
		f.logf("NEW %s (exec %d, input %d bytes -> minimized %d)",
			key, f.execs, len(j.input), len(fd.Input))
	}
	return nil
}

// covSeed derives a per-target RNG tweak from the target name so every
// target walks an independent, name-stable mutation stream.
func covSeed(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}
