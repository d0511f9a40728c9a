package obs

// The causal run journal: an append-only, strictly ordered stream of
// begin/end/point events in which every event carries an explicit
// parent span, so a warm cache hit, a fuzz finding, or a VM fault can
// be attributed back to the request that caused it even when the work
// hopped goroutines (the bench prewarm pool adopts its caller's span
// before running tasks). Span ids are assigned sequentially under the
// journal lock, so sorting events by id reproduces causal begin order
// exactly and a parent id is always smaller than its children's.
//
// The journal is the primary record; the Chrome trace_event timeline is
// a *derived view* (WriteTrace): lanes come from span parentage — a
// span is placed on its parent's lane when it nests there, and
// concurrent siblings spill to further lanes — instead of from
// goroutine ids, so the rendered nesting is causal, not accidental.
//
// With `-journal path` the stream is additionally written to disk as it
// happens, one JSON object per line (JSONL), so a killed run leaves a
// usable prefix. ValidateJournal checks that schema line by line — the
// CI smoke job runs it over a quick bench journal.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// JournalEvent is one journal record. Ev is "begin", "end", or "point";
// begin/end events bracket a span, points are instantaneous. Parent is
// the enclosing span's id (0 at the root). Timestamps are microseconds
// since the journal started; Dur is set on end events only.
type JournalEvent struct {
	Ev     string            `json:"ev"`
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Cat    string            `json:"cat,omitempty"`
	TS     int64             `json:"ts_us"`
	Dur    int64             `json:"dur_us,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// JournalSpan is one reconstructed span (a begin/end pair, or a begin
// still open when the journal was read).
type JournalSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cat    string `json:"cat,omitempty"`
	TS     int64  `json:"ts_us"`
	Dur    int64  `json:"dur_us"`
	Open   bool   `json:"open,omitempty"`
}

// Journal records the causal event stream for one process run.
type Journal struct {
	mu     sync.Mutex
	start  time.Time
	events []JournalEvent
	nextID int64
	cur    map[int64]int64 // goroutine id -> innermost open span id

	// Optional live JSONL stream; events are written as they happen.
	file *os.File
	w    *bufio.Writer
	werr error
}

// NewJournal returns an empty in-memory journal with its clock started.
func NewJournal() *Journal {
	return &Journal{start: time.Now(), cur: make(map[int64]int64)}
}

// OpenJournal returns a journal that additionally streams every event
// to path as one JSON line each, truncating any previous file.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	j := NewJournal()
	j.file = f
	j.w = bufio.NewWriter(f)
	return j, nil
}

// now returns microseconds since the journal started.
func (j *Journal) now() int64 { return time.Since(j.start).Microseconds() }

// append records ev and streams it when a file is attached. Callers
// hold j.mu.
func (j *Journal) append(ev JournalEvent) {
	j.events = append(j.events, ev)
	if j.w == nil || j.werr != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		b = append(b, '\n')
		_, err = j.w.Write(b)
	}
	if err != nil {
		j.werr = err
	}
}

// Begin opens a span under the calling goroutine's current span and
// returns the closure that ends it. Spans close LIFO per goroutine
// (the `defer Begin(...)()` discipline every call site uses), so the
// end closure restores the goroutine's previous span.
func (j *Journal) Begin(name, cat string) func() {
	if j == nil {
		return noopEnd
	}
	g := goid()
	j.mu.Lock()
	parent := j.cur[g]
	j.nextID++
	id := j.nextID
	j.cur[g] = id
	begin := j.now()
	j.append(JournalEvent{Ev: "begin", ID: id, Parent: parent, Name: name, Cat: cat, TS: begin})
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		j.cur[g] = parent
		now := j.now()
		j.append(JournalEvent{Ev: "end", ID: id, Parent: parent, Name: name, Cat: cat, TS: now, Dur: now - begin})
		j.mu.Unlock()
	}
}

// Point records an instantaneous event under the calling goroutine's
// current span.
func (j *Journal) Point(name, cat string, attrs map[string]string) {
	if j == nil {
		return
	}
	g := goid()
	j.mu.Lock()
	j.nextID++
	j.append(JournalEvent{Ev: "point", ID: j.nextID, Parent: j.cur[g], Name: name, Cat: cat, TS: j.now(), Attrs: attrs})
	j.mu.Unlock()
}

// Current returns the calling goroutine's innermost open span id, or 0.
func (j *Journal) Current() int64 {
	if j == nil {
		return 0
	}
	g := goid()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cur[g]
}

// Adopt parents the calling goroutine's subsequent spans under span id
// until the returned release runs — the cross-goroutine handoff used by
// worker pools: the dispatcher captures Current() before spawning, each
// worker adopts it. Safe to nest with Begin on the worker.
func (j *Journal) Adopt(id int64) func() {
	if j == nil {
		return noopEnd
	}
	g := goid()
	j.mu.Lock()
	prev, had := j.cur[g]
	j.cur[g] = id
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		if had {
			j.cur[g] = prev
		} else {
			delete(j.cur, g)
		}
		j.mu.Unlock()
	}
}

// Len returns the number of recorded events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a copy of the recorded events in append order.
func (j *Journal) Events() []JournalEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEvent, len(j.events))
	copy(out, j.events)
	return out
}

// Close flushes and closes the JSONL stream, if any, and reports the
// first write error encountered while streaming.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return j.werr
	}
	err := j.werr
	if ferr := j.w.Flush(); err == nil {
		err = ferr
	}
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	j.w, j.file = nil, nil
	j.werr = err
	return err
}

// Spans reconstructs the recorded spans in id (causal begin) order.
// Spans whose end was never recorded are marked Open with their
// duration running to the journal's last timestamp.
func (j *Journal) Spans() []JournalSpan {
	return SpansOf(j.Events())
}

// SpansOf reconstructs spans from a raw event stream — the offline
// counterpart of Journal.Spans used by pythia-journal over JSONL files.
func SpansOf(events []JournalEvent) []JournalSpan {
	var last int64
	byID := make(map[int64]*JournalSpan)
	var order []int64
	for _, ev := range events {
		if ev.TS > last {
			last = ev.TS
		}
		switch ev.Ev {
		case "begin":
			byID[ev.ID] = &JournalSpan{ID: ev.ID, Parent: ev.Parent, Name: ev.Name, Cat: ev.Cat, TS: ev.TS, Open: true}
			order = append(order, ev.ID)
		case "end":
			if sp := byID[ev.ID]; sp != nil {
				sp.Dur = ev.TS - sp.TS
				sp.Open = false
			}
		}
	}
	out := make([]JournalSpan, 0, len(order))
	for _, id := range order {
		sp := byID[id]
		if sp.Open {
			sp.Dur = last - sp.TS
		}
		out = append(out, *sp)
	}
	return out
}

// goid extracts the current goroutine's id from the runtime stack
// header ("goroutine N [..."). It is only called on span/event
// boundaries — compiles, runs, experiments — never per instruction.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	var id int64
	for _, c := range s[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// TraceEvent is one trace_event record. Field names follow the Chrome
// trace-event format specification.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since trace start
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object Chrome's viewer expects.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace renders the journal as a Chrome trace_event JSON document
// — the derived timeline view. Lanes (tids) come from span parentage: a
// span prefers its parent's lane (nesting there exactly as the causal
// structure dictates) and spills to the first lane where it nests or is
// disjoint with everything already placed, so concurrent siblings get
// side-by-side lanes regardless of which goroutine ran them.
func (j *Journal) WriteTrace(w io.Writer) error {
	events := j.Events()
	spans := SpansOf(events)
	type iv struct{ ts, end int64 }
	var lanes [][]iv
	laneOf := make(map[int64]int64)
	fits := func(lane []iv, s iv) bool {
		for _, e := range lane {
			disjoint := e.end <= s.ts || s.end <= e.ts
			nested := (s.ts >= e.ts && s.end <= e.end) || (e.ts >= s.ts && e.end <= s.end)
			if !disjoint && !nested {
				return false
			}
		}
		return true
	}
	place := func(sp JournalSpan) int {
		s := iv{sp.TS, sp.TS + sp.Dur}
		tryOrder := make([]int, 0, len(lanes)+1)
		if pl, ok := laneOf[sp.Parent]; ok {
			tryOrder = append(tryOrder, int(pl)-1)
		}
		for i := range lanes {
			tryOrder = append(tryOrder, i)
		}
		for _, i := range tryOrder {
			if fits(lanes[i], s) {
				lanes[i] = append(lanes[i], s)
				return i
			}
		}
		lanes = append(lanes, []iv{s})
		return len(lanes) - 1
	}
	var evs []TraceEvent
	for _, sp := range spans {
		lane := int64(place(sp)) + 1
		laneOf[sp.ID] = lane
		evs = append(evs, TraceEvent{
			Name: sp.Name, Cat: sp.Cat, Phase: "X",
			TS: float64(sp.TS), Dur: float64(sp.Dur), PID: 1, TID: lane,
			Args: map[string]any{"span": sp.ID, "parent": sp.Parent},
		})
	}
	for _, ev := range events {
		if ev.Ev != "point" {
			continue
		}
		lane := int64(1)
		if l, ok := laneOf[ev.Parent]; ok {
			lane = l
		}
		args := map[string]any{"span": ev.ID, "parent": ev.Parent}
		for k, v := range ev.Attrs {
			args[k] = v
		}
		evs = append(evs, TraceEvent{
			Name: ev.Name, Cat: ev.Cat, Phase: "i", Scope: "t",
			TS: float64(ev.TS), PID: 1, TID: lane, Args: args,
		})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// JournalStats summarizes a validated journal.
type JournalStats struct {
	Events int // total lines
	Spans  int // begin events
	Points int
	Open   int // spans begun but never ended (truncated stream)
}

// ValidateJournal reads a JSONL journal stream and checks every line
// against the schema: known fields only, a valid ev kind, positive
// sequential-unique ids, parents that reference an already-begun span
// with a smaller id, non-decreasing timestamps, durations only on end
// events, and no orphan or duplicate ends. Spans left open are legal (a
// killed run truncates the stream) and are counted in the stats.
func ValidateJournal(r io.Reader) (JournalStats, error) {
	var st JournalStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	seen := make(map[int64]bool) // every id ever used
	open := make(map[int64]bool) // spans begun, not yet ended
	var lastTS int64
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			return st, fmt.Errorf("line %d: blank line", line)
		}
		var ev JournalEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return st, fmt.Errorf("line %d: %v", line, err)
		}
		if ev.Ev != "begin" && ev.Ev != "end" && ev.Ev != "point" {
			return st, fmt.Errorf("line %d: unknown ev %q", line, ev.Ev)
		}
		if ev.Name == "" {
			return st, fmt.Errorf("line %d: empty name", line)
		}
		if ev.ID <= 0 {
			return st, fmt.Errorf("line %d: non-positive id %d", line, ev.ID)
		}
		if ev.TS < lastTS {
			return st, fmt.Errorf("line %d: timestamp regressed (%d < %d)", line, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.Parent != 0 {
			if ev.Parent >= ev.ID {
				return st, fmt.Errorf("line %d: parent %d not before span %d", line, ev.Parent, ev.ID)
			}
			if !seen[ev.Parent] {
				return st, fmt.Errorf("line %d: parent %d never began", line, ev.Parent)
			}
		}
		switch ev.Ev {
		case "begin", "point":
			if seen[ev.ID] {
				return st, fmt.Errorf("line %d: id %d reused", line, ev.ID)
			}
			seen[ev.ID] = true
			if ev.Dur != 0 {
				return st, fmt.Errorf("line %d: %s event with duration", line, ev.Ev)
			}
			if ev.Ev == "begin" {
				open[ev.ID] = true
				st.Spans++
			} else {
				st.Points++
			}
		case "end":
			if !open[ev.ID] {
				return st, fmt.Errorf("line %d: orphan end for span %d", line, ev.ID)
			}
			delete(open, ev.ID)
			if ev.Dur < 0 {
				return st, fmt.Errorf("line %d: negative duration", line)
			}
		}
		st.Events++
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	st.Open = len(open)
	return st, nil
}
