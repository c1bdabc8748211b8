package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "b.inner", Start: 60, End: 70, Parent: 2},
	}
	want := []int64{40, 20, 30, 10}
	for i, got := range selfNanos(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "late", Start: 40, End: 80, Parent: 0}, // recorded out of start order
		{Name: "early", Start: 20, End: 60, Parent: 0},
		{Name: "inside", Start: 45, End: 55, Parent: 0}, // wholly covered already
	}
	if got := selfNanos(spans)[0]; got != 40 {
		t.Errorf("root self time = %d, want 40 (children cover 20..80 once)", got)
	}
}

func TestSelfTimeClipsChildrenToTheParent(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 10, End: 50, Parent: -1},
		{Name: "early", Start: 0, End: 20, Parent: 0},
		{Name: "late", Start: 40, End: 90, Parent: 0},
	}
	if got := selfNanos(spans)[0]; got != 20 {
		t.Errorf("root self time = %d, want 20", got)
	}
}

func TestRecorderNestsSpansAndTagsRequests(t *testing.T) {
	r := newRecorder(true)
	r.nextRequest()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.end(outer)
	r.nextRequest()
	r.end(r.begin("next"))
	if len(r.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(r.spans))
	}
	if p := r.spans[inner].Parent; p != outer {
		t.Errorf("inner's parent = %d, want %d", p, outer)
	}
	if r.spans[outer].Parent != -1 || r.spans[2].Parent != -1 {
		t.Errorf("roots have parents: %+v", r.spans)
	}
	if r.spans[outer].Request != 1 || r.spans[inner].Request != 1 || r.spans[2].Request != 2 {
		t.Errorf("request ids: %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	r.end(r.begin("x"))
	if len(r.spans) != 0 {
		t.Errorf("a recorder that is off recorded %d spans", len(r.spans))
	}
}

func TestWriteTraceCarriesEverySpanField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{{Name: "root", Start: 0, End: 10, Parent: -1, Request: 3}, {Name: "kid", Start: 2, End: 6, Parent: 0, Request: 3}}
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("trace holds %d spans, want 2", len(doc.Spans))
	}
	for _, field := range []string{"id", "name", "start_ns", "end_ns", "parent", "request", "self_ns"} {
		if _, ok := doc.Spans[1][field]; !ok {
			t.Errorf("span lacks %q: %v", field, doc.Spans[1])
		}
	}
	if got := doc.Spans[0]["self_ns"]; got != float64(6) {
		t.Errorf("root self_ns = %v, want 6", got)
	}
}
