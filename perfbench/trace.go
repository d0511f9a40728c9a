package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Req; a root span has Parent -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so the same code path runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// busy is the summed duration and count of the spans called name.
func (t *tracer) busy(name string) (time.Duration, int) {
	var total time.Duration
	ss := t.named(name)
	for _, s := range ss {
		total += s.dur()
	}
	return total, len(ss)
}

// durationsMS lists the durations of the spans called name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// childCoverage is how much of parent's interval its direct children
// cover, counting overlapping children once.
func childCoverage(spans []span, parent span) time.Duration {
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.Parent == parent.ID && s.ID != parent.ID {
			lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(spans []span, s span) time.Duration { return s.dur() - childCoverage(spans, s) }

// coveredFrac is the share of replayed ops' time that their layer
// spans cover.
func coveredFrac(spans []span) float64 {
	var total, covered time.Duration
	for _, s := range spans {
		if s.Parent < 0 && s.Name == "op" {
			total += s.dur()
			covered += childCoverage(spans, s)
		}
	}
	return frac(float64(covered), float64(total))
}

// checkNesting verifies that every span is closed, that its parent was
// opened before it, belongs to the same op and encloses its interval.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d %s has parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Req != s.Req {
			return fmt.Errorf("span %d %s (req %d) under span %d of req %d", s.ID, s.Name, s.Req, p.ID, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%v,%v] outside parent %d %s [%v,%v]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
