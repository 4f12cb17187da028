package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		// Two parallel children overlapping on [20, 30]: together they
		// cover [10, 40], 30 ns, not the 40 ns their durations sum to.
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 40, Parent: 0},
		// A child running past its parent's end counts only inside it.
		{Name: "child", Start: 90, End: 120, Parent: 0},
		// A grandchild is the child's business, not the parent's.
		{Name: "grandchild", Start: 12, End: 14, Parent: 1},
	}
	self := selfTimes(spans)
	if self[0] != 100-30-10 {
		t.Errorf("parent self = %d, want 60", self[0])
	}
	if self[1] != 20-2 {
		t.Errorf("child self = %d, want 18", self[1])
	}
	if self[4] != 2 {
		t.Errorf("leaf self = %d, want its duration 2", self[4])
	}
	if got := childSelfNs(spans, "parent", "child"); got != 18+20+30 {
		t.Errorf("children's self time under parent = %d, want 68", got)
	}
	if got := childSelfNs(spans, "child", "grandchild"); got != 2 {
		t.Errorf("grandchild self time under child = %d, want 2", got)
	}
}

func TestSelfTimeNestedAndDisjointChildren(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 50, Parent: -1},
		{Start: 5, End: 10, Parent: 0},
		{Start: 6, End: 9, Parent: 0}, // inside the first child
		{Start: 20, End: 25, Parent: 0},
		{Start: 60, End: 70, Parent: 0}, // outside the parent entirely
		{Start: 30, End: -1, Parent: 0}, // never closed
	}
	if got := selfTimes(spans)[0]; got != 50-5-5 {
		t.Errorf("parent self = %d, want 40", got)
	}
}

func TestTracerRecordsAndSummarizes(t *testing.T) {
	tr := NewTracer(3)
	p := tr.Open("outer", 7, -1)
	c := tr.Open("inner", 7, p)
	tr.Close(c)
	tr.Close(p)
	tr.Close(tr.Open("flat", 8, -1))
	if sp := tr.Open("overflow", 9, -1); sp != -1 || tr.dropped != 1 {
		t.Fatalf("span beyond capacity: index %d, dropped %d", sp, tr.dropped)
	}
	sum := summarize(tr.Spans())
	if sum["outer"].n != 1 || sum["inner"].n != 1 || sum["flat"].n != 1 {
		t.Fatalf("summary %v", sum)
	}
	if out, in := tr.Spans()[0], tr.Spans()[1]; sum["outer"].self != (out.End-out.Start)-(in.End-in.Start) {
		t.Fatalf("outer self %d, want its duration minus inner's", sum["outer"].self)
	}
	if err := tr.WriteTSV(filepath.Join(t.TempDir(), "spans.tsv")); err != nil {
		t.Fatal(err)
	}

	var off *Tracer
	if off.Open("x", 0, -1) != -1 || off.Spans() != nil {
		t.Fatal("nil tracer must be a no-op")
	}
	off.Close(0)
}
