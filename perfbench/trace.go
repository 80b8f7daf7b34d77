package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a public entry point.
// Spans of one stream (a bulk pass or a gateway request) share Stream;
// Parent is the id of the enclosing span, 0 for a stream's root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Stream int    `json:"stream"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// event is one per-segment callback: the Writer's OnSegment ("emit"),
// the Reader's OnSegment ("deliver") or OnRepair ("repair"). Host is the
// segment's measured Report.HostTime, the host step a pipeline worker ran.
type event struct {
	Kind   string `json:"kind"`
	Stream int    `json:"stream"`
	Index  int    `json:"index"`
	Codec  string `json:"codec,omitempty"`
	T      int64  `json:"t_ns"`
	Host   int64  `json:"host_ns,omitempty"`
}

// tracer keeps spans and events in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil test per call.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	events []event
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, stream, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Stream: stream, Parent: parent, Start: start})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) event(kind string, stream, index int, codec string, host time.Duration) {
	if t == nil {
		return
	}
	ev := event{Kind: kind, Stream: stream, Index: index, Codec: codec, T: t.now(), Host: int64(host)}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// snapshot returns copies of the recorded spans and events.
func (t *tracer) snapshot() ([]span, []event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]event(nil), t.events...)
}

// streamView groups one stream's spans and events.
type streamView struct {
	root     span
	children []span
	events   []event
}

// sum is the total duration of the stream's child spans named name.
func (v streamView) sum(name string) time.Duration {
	var d int64
	for _, s := range v.children {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// firstEnd is the end of the stream's first child span named name,
// relative to the root's start; false if there is none.
func (v streamView) firstEnd(name string) (time.Duration, bool) {
	for _, s := range v.children {
		if s.Name == name {
			return time.Duration(s.End - v.root.Start), true
		}
	}
	return 0, false
}

// streams groups spans and events by stream, in stream order. Only
// streams whose root span has ended are returned.
func streams(spans []span, events []event) []streamView {
	byStream := map[int]*streamView{}
	var order []int
	for _, s := range spans {
		if s.Parent == 0 {
			byStream[s.Stream] = &streamView{root: s}
			order = append(order, s.Stream)
		}
	}
	for _, s := range spans {
		if v := byStream[s.Stream]; v != nil && s.Parent != 0 {
			v.children = append(v.children, s)
		}
	}
	for _, e := range events {
		if v := byStream[e.Stream]; v != nil {
			v.events = append(v.events, e)
		}
	}
	out := make([]streamView, 0, len(order))
	for _, id := range order {
		if v := byStream[id]; v.root.End > 0 {
			out = append(out, *v)
		}
	}
	return out
}

// busy is the stream's layer busy time: its calls into core (the
// benchmark's spans, on one goroutine) plus the gpu host steps the
// pipeline's workers ran for it (Σ Report.HostTime of its segments).
func (v streamView) busy() int64 {
	var d int64
	for _, s := range v.children {
		d += s.End - s.Start
	}
	for _, e := range v.events {
		d += e.Host
	}
	return d
}

// checkBusy is the trace's sanity check: within each stream every span
// ends after it starts and lies inside the root, every event falls
// inside the root, and the stream's layer busy time is at most its wall
// time × procs. It returns the highest busy / (wall × procs) it saw.
func checkBusy(views []streamView, procs int) (float64, error) {
	worst := 0.0
	for _, v := range views {
		for _, s := range v.children {
			if s.End < s.Start || s.Start < v.root.Start || s.End > v.root.End {
				return worst, fmt.Errorf("stream %d: span %q [%d,%d] outside root [%d,%d]",
					v.root.Stream, s.Name, s.Start, s.End, v.root.Start, v.root.End)
			}
		}
		for _, e := range v.events {
			if e.T < v.root.Start || e.T > v.root.End {
				return worst, fmt.Errorf("stream %d: %s event at %d outside root", v.root.Stream, e.Kind, e.T)
			}
		}
		busy, limit := v.busy(), (v.root.End-v.root.Start)*int64(procs)
		if limit > 0 {
			worst = max(worst, float64(busy)/float64(limit))
		}
		if busy > limit {
			return worst, fmt.Errorf("stream %d: layer busy %dns exceeds wall × %d procs (%dns)", v.root.Stream, busy, procs, limit)
		}
	}
	return worst, nil
}

// writeFile writes the spans and events as JSON to path.
func (t *tracer) writeFile(path string) error {
	spans, events := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans  []span  `json:"spans"`
		Events []event `json:"events"`
	}{spans, events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
