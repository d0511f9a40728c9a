package core

// The staged build pipeline. Pipeline splits a build into explicitly
// memoized stages, so one vanilla compile serves every scheme:
//
//	compile: source -> optimized vanilla IR        (keyed by source)
//	harden:  vanilla IR x scheme -> hardened IR    (keyed by IR digest x scheme)
//	run:     unchanged (memoized per-process by internal/bench)
//
// Both stages coalesce concurrent requests in-process (singleflight)
// and, when the pipeline is opened over a cache directory, persist
// their outputs in a content-addressed artifact store shared across
// processes. The harden stage derives each scheme's module by decoding
// the shared vanilla compile's bytes instead of recompiling.
//
// The vulnerability analysis depends only on the vanilla compile, so
// each compile entry carries one, computed by the first harden miss (or
// Analyze) that needs it and read by every scheme's harden as
// slice.Facts, which hold no module pointers: each harden binds them to
// its own decode. The analysis is never persisted, since a harden disk
// hit needs none.
//
// Determinism invariant: a Program built through any mix of cold
// stages, warm in-process stages, and warm on-disk stages is
// bit-identical in behavior. The pipeline enforces this by
// construction — both memo stages hold only their canonical encodings,
// and every module a stage hands on is decoded from them, so the cold
// path exercises exactly the serialize/deserialize round-trip the warm
// path depends on. A decoded module takes about 11x the heap of its
// encoding, so the memo keeps no modules at all.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/dfi"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/slice"
)

// PipelineVersion names the pipeline's artifact schema. It is folded
// into every cache key together with ir.SerialVersion, so changing
// either invalidates persisted entries cleanly (stale keys are simply
// never looked up again). v2: hardened modules carry stable check-site
// ids in instruction Meta (harden.AssignSites), so v1 artifacts —
// valid IR but without site identity — must not be served. v3: the
// front end classifies wrapper channels, so compile artifacts carry
// their kinds, and v2 compile artifacts, which lack them, must not be
// served. v4: pythia-fields guards each channel call once per field
// canary, and CPA checks reads through pointers loaded from sealed
// slots, so v3 harden artifacts hold the old instrumentation.
const PipelineVersion = "pythia-pipeline-v4"

// Pipeline memoizes the compile and harden stages. The zero value is
// not usable; construct with NewPipeline or OpenPipeline.
type Pipeline struct {
	store *artifact.Store // nil: in-process memoization only

	mu       sync.Mutex
	compiles map[string]*compileEntry
	hardens  map[string]*hardenEntry
}

// compileEntry is one memoized vanilla compile: the canonical encoding
// every downstream harden decodes its module from, and the analysis of
// that encoding every instrumenting harden reads.
type compileEntry struct {
	once   sync.Once
	enc    []byte
	digest string // artifact.Key of enc: the harden stage's upstream key
	err    error

	analysisOnce sync.Once
	facts        *slice.Facts
}

// analysis returns the compile's analysis, computing it from mod, a
// decode of enc that no pass has edited yet, when no stage has.
func (e *compileEntry) analysis(name string, mod *ir.Module) *slice.Facts {
	e.analysisOnce.Do(func() { e.facts = e.analyze(name, mod).Facts() })
	return e.facts
}

// analyze runs the vulnerability analysis of mod, a decode of enc.
func (e *compileEntry) analyze(name string, mod *ir.Module) *slice.VulnReport {
	count("pipeline.analysis.misses", map[string]string{"name": name, "compile": e.digest})
	defer obs.TraceSpan("analyze "+name, "slice")()
	return slice.AnalyzeVulnerabilities(mod)
}

// hardenEntry is one memoized (vanilla IR, scheme) instrumentation: the
// canonical encoding every Build decodes its module from, and the
// protection report every Build of the key shares.
type hardenEntry struct {
	once sync.Once
	enc  []byte
	prot Protection
	err  error
}

// NewPipeline returns a pipeline with in-process memoization only.
func NewPipeline() *Pipeline {
	return &Pipeline{
		compiles: make(map[string]*compileEntry),
		hardens:  make(map[string]*hardenEntry),
	}
}

// OpenPipeline returns a pipeline whose compile and harden stages are
// additionally backed by a persistent content-addressed store at dir.
func OpenPipeline(dir string) (*Pipeline, error) {
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	pl := NewPipeline()
	pl.store = st
	return pl, nil
}

// defaultPipeline serves the package-level Build/CompileC convenience
// entry points, giving every caller in the process — the attack matrix,
// the fuzzer's program tables, examples — shared compile and harden
// stages for free.
var defaultPipeline = NewPipeline()

// DefaultPipeline returns the process-wide pipeline (no persistent
// store). Callers that want an isolated cache or a -cache-dir-backed
// one construct their own via NewPipeline/OpenPipeline.
func DefaultPipeline() *Pipeline { return defaultPipeline }

// Store returns the pipeline's persistent artifact store, or nil for
// an in-process-only pipeline — embedders (pythiad) use it to bound
// and report the shared cache directory without opening it twice.
func (pl *Pipeline) Store() *artifact.Store { return pl.store }

// PipelineStats counts the stage entries memoized in process — the
// service's "how much is this engine already holding" signal.
type PipelineStats struct {
	Compiles int `json:"compiles"`
	Hardens  int `json:"hardens"`
}

// Stats reports the in-process memoization footprint. Entries still
// being computed count too: the maps are populated at request time.
func (pl *Pipeline) Stats() PipelineStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return PipelineStats{Compiles: len(pl.compiles), Hardens: len(pl.hardens)}
}

// count bumps a pipeline obs counter, resolving the active registry at
// increment time, and drops a journal point under the requesting span
// so warm hits stay attributable to the request that made them.
func count(name string, attrs map[string]string) {
	obs.Count(name)
	obs.Point(name, "pipeline", attrs)
}

// compileKey derives the compile stage's cache key.
func compileKey(name, src string) string {
	return artifact.Key("compile", PipelineVersion, strconv.Itoa(ir.SerialVersion), name, src)
}

// hardenKey derives the harden stage's cache key from the upstream
// compile digest.
func hardenKey(compileDigest string, scheme Scheme) string {
	return artifact.Key("harden", PipelineVersion, strconv.Itoa(ir.SerialVersion), compileDigest, scheme.String())
}

// compile resolves the compile stage for (name, src): in-process memo,
// then persistent store, then the real front-end.
func (pl *Pipeline) compile(name, src string) *compileEntry {
	key := compileKey(name, src)
	pl.mu.Lock()
	e, ok := pl.compiles[key]
	if !ok {
		e = &compileEntry{}
		pl.compiles[key] = e
	}
	pl.mu.Unlock()
	if ok {
		count("pipeline.compile.hits", map[string]string{"name": name})
	}
	e.once.Do(func() {
		if pl.store != nil {
			if enc, ok := pl.store.Get(key); ok {
				// The shared directory is outside input: serve only an
				// entry that decodes, else fall through and recompile.
				if _, err := ir.DecodeModule(enc); err == nil {
					count("pipeline.compile.disk_hits", map[string]string{"name": name, "key": key})
					e.enc, e.digest = enc, artifact.Key(string(enc))
					return
				}
			}
		}
		count("pipeline.compile.misses", map[string]string{"name": name})
		defer func(start time.Time) { obs.ObserveMS("pipeline.compile.ms", time.Since(start)) }(time.Now())
		mod, err := CompileC(name, src)
		if err != nil {
			e.err = err
			return
		}
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			e.err = fmt.Errorf("core: encode compiled %s: %w", name, err)
			return
		}
		e.enc, e.digest = enc, artifact.Key(string(enc))
		if pl.store != nil {
			if err := pl.store.Put(key, enc); err != nil {
				e.err = fmt.Errorf("core: persist compiled %s: %w", name, err)
			}
		}
	})
	return e
}

// Compile returns the optimized vanilla module for src, a fresh decode
// of the stage's canonical bytes: the memo holds no module, so hardening
// or analyzing the result never perturbs it.
func (pl *Pipeline) Compile(name, src string) (*ir.Module, error) {
	e := pl.compile(name, src)
	if e.err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, e.err)
	}
	mod, err := ir.DecodeModule(e.enc)
	if err != nil {
		return nil, fmt.Errorf("core: reload compiled %s: %w", name, err)
	}
	return mod, nil
}

// harden resolves the harden stage for (compiled vanilla, scheme) and
// reports whether the in-process memo already held it.
func (pl *Pipeline) harden(name string, ce *compileEntry, scheme Scheme) (*hardenEntry, bool) {
	key := hardenKey(ce.digest, scheme)
	pl.mu.Lock()
	e, ok := pl.hardens[key]
	if !ok {
		e = &hardenEntry{}
		pl.hardens[key] = e
	}
	pl.mu.Unlock()
	if ok {
		count("pipeline.harden.hits", map[string]string{"name": name, "scheme": scheme.String()})
	}
	e.once.Do(func() {
		if pl.store != nil {
			if raw, ok := pl.store.Get(key); ok {
				enc, prot, err := decodeHardened(raw)
				if err == nil {
					count("pipeline.harden.disk_hits", map[string]string{"name": name, "scheme": scheme.String(), "key": key})
					e.enc, e.prot = enc, prot
					return
				}
			}
		}
		count("pipeline.harden.misses", map[string]string{"name": name, "scheme": scheme.String()})
		defer func(start time.Time) { obs.ObserveMS("pipeline.harden.ms", time.Since(start)) }(time.Now())
		mod, err := ir.DecodeModule(ce.enc)
		if err != nil {
			e.err = fmt.Errorf("core: reload compiled %s: %w", name, err)
			return
		}
		var facts *slice.Facts
		if scheme.Analyzes() {
			facts = ce.analysis(name, mod)
		}
		prot, err := protect(mod, scheme, facts)
		if err != nil {
			e.err = err
			return
		}
		enc, err := ir.EncodeModule(mod)
		if err != nil {
			e.err = fmt.Errorf("core: encode hardened %s: %w", name, err)
			return
		}
		e.enc, e.prot = enc, *prot
		if pl.store != nil {
			raw, err := encodeHardened(enc, prot)
			if err != nil {
				e.err = fmt.Errorf("core: persist hardened %s: %w", name, err)
				return
			}
			if err := pl.store.Put(key, raw); err != nil {
				e.err = fmt.Errorf("core: persist hardened %s: %w", name, err)
			}
		}
	})
	return e, ok
}

// Analyze returns the vulnerability analysis of src's vanilla compile,
// run on a fresh decode that the report keeps. When no harden has
// analyzed the compile yet, the compile keeps this analysis for its
// hardens, so analyzing a compile before hardening it pays for one
// analysis, not two.
func (pl *Pipeline) Analyze(name, src string) (*slice.VulnReport, error) {
	ce := pl.compile(name, src)
	if ce.err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, ce.err)
	}
	mod, err := ir.DecodeModule(ce.enc)
	if err != nil {
		return nil, fmt.Errorf("core: reload compiled %s: %w", name, err)
	}
	vr := ce.analyze(name, mod)
	ce.analysisOnce.Do(func() { ce.facts = vr.Facts() })
	return vr, nil
}

// PrewarmCompile resolves the compile stage for (name, src) without
// decoding a module — the batched prewarm pool uses it to pay each
// distinct front-end compile exactly once before any scheme fan-out.
func (pl *Pipeline) PrewarmCompile(name, src string) error {
	e := pl.compile(name, src)
	return e.err
}

// PrewarmHarden resolves the compile and harden stages for (name, src,
// scheme) without decoding a module.
func (pl *Pipeline) PrewarmHarden(name, src string, scheme Scheme) error {
	ce := pl.compile(name, src)
	if ce.err != nil {
		return ce.err
	}
	he, _ := pl.harden(name, ce, scheme)
	return he.err
}

// Build compiles src and protects it with the scheme, pulling both
// stages through the pipeline's caches. Every call decodes a fresh
// module only because the memo holds bytes, not modules: no caller
// writes the module it gets. The Protection is shared by every Build of
// the key and is read-only. MemoHit reports whether the harden stage
// was already in the in-process memo.
func (pl *Pipeline) Build(name, src string, scheme Scheme) (*Program, error) {
	ce := pl.compile(name, src)
	if ce.err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, ce.err)
	}
	he, hit := pl.harden(name, ce, scheme)
	if he.err != nil {
		return nil, fmt.Errorf("core: protect %s with %v: %w", name, scheme, he.err)
	}
	mod, err := ir.DecodeModule(he.enc)
	if err != nil {
		return nil, fmt.Errorf("core: reload hardened %s: %w", name, err)
	}
	return &Program{Mod: mod, Protection: &he.prot, Seed: 42, MemoHit: hit}, nil
}

// protMeta is the persisted shape of a Protection: the scheme plus
// whichever report its pass produced. Reports are flat exported-int
// structs, so JSON round-trips them exactly.
type protMeta struct {
	Scheme harden.Scheme  `json:"scheme"`
	Harden *harden.Report `json:"harden,omitempty"`
	DFI    *dfi.Report    `json:"dfi,omitempty"`
}

// encodeHardened frames a harden artifact: varint meta length, the
// protection metadata JSON, then the module encoding.
func encodeHardened(enc []byte, prot *Protection) ([]byte, error) {
	meta, err := json.Marshal(protMeta{Scheme: prot.Scheme, Harden: prot.Harden, DFI: prot.DFI})
	if err != nil {
		return nil, err
	}
	out := binary.AppendUvarint(nil, uint64(len(meta)))
	out = append(out, meta...)
	return append(out, enc...), nil
}

// decodeHardened splits a harden artifact back into the module encoding
// and its protection.
func decodeHardened(raw []byte) ([]byte, Protection, error) {
	n, sz := binary.Uvarint(raw)
	if sz <= 0 || n > uint64(len(raw)-sz) {
		return nil, Protection{}, fmt.Errorf("core: harden artifact header truncated")
	}
	var meta protMeta
	if err := json.Unmarshal(raw[sz:sz+int(n)], &meta); err != nil {
		return nil, Protection{}, fmt.Errorf("core: harden artifact metadata: %w", err)
	}
	return raw[sz+int(n):], Protection{Scheme: meta.Scheme, Harden: meta.Harden, DFI: meta.DFI}, nil
}
