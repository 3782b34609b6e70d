package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a request's root).
// Start and End are nanoseconds since the tracer started. Counts holds
// work counted at the same boundary (refinements, candidates, ...).
type Span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs call the same code.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(req, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: int64(len(t.spans)) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return int64(len(t.spans))
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Count attaches counts to span id. Callers read their counters after
// End, so the reads are not timed.
func (t *Tracer) Count(id int64, counts map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Counts = counts
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans as one JSON array to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (parallel calls), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]*Span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		ivs := make([][2]int64, 0, len(kids[s.ID]))
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, end int64
		end = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				covered += iv[1] - lo
				end = iv[1]
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerRow is one line of the traced-run table.
type layerRow struct {
	name  string
	root  string // name of the root span the calls ran under
	calls int
	self  float64 // median self time per call, ms
	share float64 // total self time ÷ total duration of those roots
}

// layerTable aggregates self time per span name and root. The share
// column is relative to the summed duration of the root spans of the
// same name (request, setup), so it reads as the layer's share of
// request time or of set-up time.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	byID := make(map[int64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(s *Span) string {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name
	}
	type key struct{ root, name string }
	per := map[key][]float64{}
	total := map[key]time.Duration{}
	rootTotal := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		k := key{rootOf(s), s.Name}
		per[k] = append(per[k], ms(self[s.ID]))
		total[k] += self[s.ID]
		if s.Parent == 0 {
			rootTotal[s.Name] += s.dur()
		}
	}
	rows := make([]layerRow, 0, len(per))
	for k, xs := range per {
		r := layerRow{name: k.name, root: k.root, calls: len(xs), self: median(xs)}
		if t := rootTotal[k.root]; t > 0 {
			r.share = float64(total[k]) / float64(t)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].root != rows[b].root {
			return rows[a].root < rows[b].root
		}
		return rows[a].name < rows[b].name
	})
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "traced layers (%s): root, span, calls, median self ms, share of root time\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-20s %7d %12.4f %8.1f%%\n", r.root, r.name, r.calls, r.self, 100*r.share)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
