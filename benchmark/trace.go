package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// benchmark code around the call. Start and End are nanoseconds since
// the recorder was created; Parent is the index of the span that was open
// when this one began (-1 for a root); spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// recorder keeps spans in memory until the traced run ends. It is used
// from one goroutine: the traced run issues its calls sequentially so that
// parent/child nesting is the call nesting. A recorder that is off records
// nothing, which is the baseline trace.overhead_share compares against.
type recorder struct {
	on      bool
	t0      time.Time
	spans   []span
	open    []int
	request int
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// nextRequest starts a new request identifier for the spans that follow.
func (r *recorder) nextRequest() { r.request++ }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Request: r.request, Start: int64(time.Since(r.t0))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if !r.on {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// selfNanos returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfNanos(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeTrace writes the spans and their self times as one JSON document.
func writeTrace(path string, spans []span) error {
	type traced struct {
		span
		ID   int   `json:"id"`
		Self int64 `json:"self_ns"`
	}
	self := selfNanos(spans)
	out := make([]traced, len(spans))
	for i, s := range spans {
		out[i] = traced{span: s, ID: i, Self: self[i]}
	}
	data, err := json.Marshal(map[string]any{"unit": "ns since trace start", "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
