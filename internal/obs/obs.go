// Package obs is the unified observability layer of the reproduction:
// a causal run journal (append-only span/point events with explicit
// parent links; the Chrome trace_event timeline is a derived view),
// a metrics registry (counters/gauges exposed via expvar and JSON/text
// dumps), defense-coverage telemetry (which hardening check sites
// actually executed, per profile x scheme), and the fault flight
// recorder that turns a bare vm.Fault into a forensic report (function,
// site, last-N instruction window, faulting address and segment).
//
// The layer is strictly zero-cost when disabled: nothing is active
// unless a Session has been started (or a machine was built with an
// explicit flight window), and the VM's per-instruction hook compiles
// down to one nil check on the engines' existing tick paths. All
// observability is read-only — it never touches the perf meter, the
// RNG, or memory, so enabling it cannot change a single byte of the
// evaluation tables.
//
// The per-site check tally (SiteCount: executions, faults and
// attributed cycles of every hardening check site) is not a session
// feature: every VM run returns it in vm.Result.Sites, and a session
// only aggregates it (CoverageAgg, AttribAgg). A session's Sites or
// Attrib collector additionally arms cycle charging on the machines
// built while it is active.
//
// A Session is process-global, like expvar, and the subsystems pick it
// up through Current() without any signature plumbing. Every CLI starts
// its session through Outputs, which arms the collectors its -journal,
// -trace, -metrics and -serve flags need and writes their files on
// every exit, failures included; pythia-bench hands Outputs a session
// that already carries its -coverage, -attribution and -hotsites
// collectors. No session field arms a feature of one machine: a flight
// recorder is armed per machine by vm.Config.Flight (package attack
// arms it for every attacked run, pythiad for a request that asks for
// forensics).
package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/perf"
)

// DefaultFlightWindow is the flight-recorder depth used by callers that
// want fault forensics but have no reason to tune the window (the
// attack engine, notably). 16 instructions is enough to see the
// corrupting store, the hardening check that tripped, and the control
// flow between them in every corpus case.
const DefaultFlightWindow = 16

// Session bundles the process-wide observability configuration. Fields
// left nil/zero disable the corresponding feature individually.
type Session struct {
	// Journal receives the causal event stream (spans with explicit
	// parent links, plus points); the Chrome trace is a derived view of
	// it (Journal.WriteTrace).
	Journal *Journal
	// Coverage aggregates per-check-site execution counts across runs
	// (pythia-bench -coverage, /api/coverage).
	Coverage *CoverageAgg
	// Attrib aggregates per-check-site cycle costs for the overhead
	// attribution engine (pythia-bench -attribution, /api/attribution).
	Attrib *AttribAgg
	// Metrics receives counters and gauges from the VM, the bench run
	// cache, the prewarm pool, and the heap allocator.
	Metrics *Registry
	// Sites aggregates per-IR-site cycle attribution across every
	// machine run while the session is active (pythia-bench -hotsites).
	Sites *perf.SiteProf
	// Progress tracks sweep completion for the live observability
	// server's /progress endpoint (pythia-bench -serve).
	Progress *Progress
}

var current atomic.Pointer[Session]

// Start makes s the active session and returns it. Passing nil is
// equivalent to Stop.
func Start(s *Session) *Session {
	current.Store(s)
	return s
}

// Stop deactivates observability; subsequent machines and passes run
// with every hook disabled.
func Stop() { current.Store(nil) }

// Current returns the active session, or nil when observability is off.
func Current() *Session { return current.Load() }

// CurrentMetrics returns the active session's metrics registry, or nil.
func CurrentMetrics() *Registry {
	if s := Current(); s != nil {
		return s.Metrics
	}
	return nil
}

// CurrentJournal returns the active session's journal, or nil.
func CurrentJournal() *Journal {
	if s := Current(); s != nil {
		return s.Journal
	}
	return nil
}

// CurrentCoverage returns the active session's coverage aggregator, or
// nil.
func CurrentCoverage() *CoverageAgg {
	if s := Current(); s != nil {
		return s.Coverage
	}
	return nil
}

// CurrentAttrib returns the active session's attribution aggregator,
// or nil.
func CurrentAttrib() *AttribAgg {
	if s := Current(); s != nil {
		return s.Attrib
	}
	return nil
}

// ObserveMS folds a duration into the named registry histogram in
// milliseconds; one nil check when no metrics are armed. The latency
// call sites (pipeline stages, pool queue wait, VM runs) all funnel
// through here.
func ObserveMS(name string, d time.Duration) {
	if reg := CurrentMetrics(); reg != nil {
		reg.Histo(name).Observe(float64(d.Nanoseconds()) / 1e6)
	}
}

// Count adds one to the named registry counter; one nil check when no
// metrics are armed. The registry is resolved at each call, so a
// long-lived caller built before a session started (a bench Runner, a
// pythiad engine, an artifact store) counts into whichever session is
// active now.
func Count(name string) {
	if reg := CurrentMetrics(); reg != nil {
		reg.Add(name, 1)
	}
}

func noopEnd() {}

// TraceSpan opens a span in the active session's journal. Disabled, it
// returns a no-op, so call sites reduce to
// `defer obs.TraceSpan("name", "cat")()`.
func TraceSpan(name, cat string) func() {
	if j := CurrentJournal(); j != nil {
		return j.Begin(name, cat)
	}
	return noopEnd
}

// Point records a journal point under the calling goroutine's current
// span, when a journal is armed — the artifact store and the pipeline
// use it to attribute cache hits and misses to their requesting span,
// and Program.Run to mark a VM fault.
func Point(name, cat string, attrs map[string]string) {
	if j := CurrentJournal(); j != nil {
		j.Point(name, cat, attrs)
	}
}

// CurrentSpanID returns the calling goroutine's innermost open journal
// span id, or 0 when no journal is armed or no span is open.
func CurrentSpanID() int64 {
	return CurrentJournal().Current()
}

// AdoptSpan parents the calling goroutine's subsequent journal spans
// under span id until the returned release runs. A no-op without a
// journal — worker pools call it unconditionally.
func AdoptSpan(id int64) func() {
	if j := CurrentJournal(); j != nil {
		return j.Adopt(id)
	}
	return noopEnd
}
