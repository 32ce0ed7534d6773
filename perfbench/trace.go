package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op returning span ID 0.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as the
// daemon's own job timestamps.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of p the union of kids covers.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, p.Start), min(k.End, p.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// writeFile stores every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the per-name self times, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time by span:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %12.3f ms\n", n, float64(self[n])/1e6)
	}
}
