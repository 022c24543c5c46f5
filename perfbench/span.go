package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public entry point of the program; nothing inside the program is
// instrumented. Name is "<layer>.<call>". Spans of one operation (a
// prediction or a daemon job) share Op; Op 0 is pass-level work.
type Span struct {
	ID, Parent int // Parent 0: a root span
	Op         int
	Lane       int // chrome thread lane: the daemon client, 0 otherwise
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Args       map[string]float64
}

// Layer is the module prefix of the span name.
func (s *Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's wall time.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced run: Start returns 0 and Finish does nothing.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span and returns its id.
func (t *Tracer) Start(name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name, Start: now})
	return id
}

// Finish closes span id, attaching the counts taken at its boundary.
func (t *Tracer) Finish(id int, args map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Args = args
}

// Add records a span measured elsewhere (the daemon's own timestamps),
// given as absolute times.
func (t *Tracer) Add(name string, parent, op, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane,
		Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children are counted once).
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerRow is one line of the self-time table: a layer's total, or one
// call of it when Call is set.
type layerRow struct {
	Layer, Call string
	Self        time.Duration
	Share       float64 // of the base
}

// layerTable sums self time per layer, and per call within the layer,
// over the spans under the roots named rootName. Each row's share is of
// the roots' total duration, which it also returns as the base.
func layerTable(spans []Span, rootName string) ([]layerRow, time.Duration) {
	self := selfTimes(spans)
	byID := make(map[int]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(s *Span) *Span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	var base time.Duration
	layers := map[string]time.Duration{}
	calls := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if rootOf(s).Name != rootName {
			continue
		}
		if s.Parent == 0 {
			base += s.Dur()
		}
		layers[s.Layer()] += self[s.ID]
		calls[s.Name] += self[s.ID]
	}
	share := func(d time.Duration) float64 {
		if base == 0 {
			return 0
		}
		return float64(d) / float64(base)
	}
	bySelf := func(rows []layerRow) {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Self != rows[j].Self {
				return rows[i].Self > rows[j].Self
			}
			return rows[i].Layer+rows[i].Call < rows[j].Layer+rows[j].Call
		})
	}
	var rows []layerRow
	for l, d := range layers {
		rows = append(rows, layerRow{Layer: l, Self: d, Share: share(d)})
	}
	bySelf(rows)
	var out []layerRow
	for _, r := range rows {
		out = append(out, r)
		var sub []layerRow
		for name, d := range calls {
			if l, c, _ := strings.Cut(name, "."); l == r.Layer {
				sub = append(sub, layerRow{Layer: l, Call: c, Self: d, Share: share(d)})
			}
		}
		bySelf(sub)
		out = append(out, sub...)
	}
	return out, base
}

// writeLayerTable renders the table with its base.
func writeLayerTable(w io.Writer, workload, root string, rows []layerRow, base time.Duration) {
	fmt.Fprintf(w, "%s: self time by layer under %s spans (base: %.4f s, their total duration)\n", workload, root, base.Seconds())
	fmt.Fprintf(w, "  %-24s %12s %8s\n", "layer / call", "self_s", "share")
	for _, r := range rows {
		name := r.Layer
		if r.Call != "" {
			name = "  ." + r.Call
		}
		fmt.Fprintf(w, "  %-24s %12.4f %7.1f%%\n", name, r.Self.Seconds(), 100*r.Share)
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events), which chrome://tracing and Perfetto open directly.
func writeChrome(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"span": s.ID, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.Name, Cat: s.Layer(), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
