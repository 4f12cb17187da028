package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one request share Req (the
// message sequence number, or the tuple's seq column).
type Span struct {
	Name   string
	Req    int64
	Start  int64 // ns since epoch
	End    int64
	Parent int32 // index of the enclosing span, -1 for a root
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so instrumented call sites
// cost one nil check.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTracer preallocates room for capacity spans; spans beyond it are
// counted as dropped rather than growing the buffer mid-run.
func NewTracer(capacity int) *Tracer {
	return &Tracer{spans: make([]Span, 0, capacity)}
}

// Open starts a span and returns its index for Close and for children's
// parent links.
func (t *Tracer) Open(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Req: req, Start: start, End: -1, Parent: parent})
	return int32(len(t.spans) - 1)
}

// Close ends the span Open returned.
func (t *Tracer) Close(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	end := now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// Spans returns the recorded spans; call once recording has stopped.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// WriteTSV writes the spans, one per line, with each span's self time.
func (t *Tracer) WriteTSV(path string) error {
	spans := t.Spans()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\treq\tstart_ns\tend_ns\tparent\tself_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.Name, s.Req, s.Start, s.End, s.Parent, self[i])
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes gives each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (fan-out workers send in parallel), so covered time is the length of
// the union of the children's intervals clipped to the parent, never
// the sum of their durations. Spans left open count as zero.
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = s.End - s.Start - covered(children[int32(i)], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// spanStat is the per-name aggregate of a trace.
type spanStat struct {
	n    int
	self int64 // summed self time, ns
}

// summarize aggregates spans by name.
func summarize(spans []Span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		st := out[s.Name]
		st.n++
		st.self += self[i]
		out[s.Name] = st
	}
	return out
}

// childSelfNs sums the self time of the child spans named child whose
// parent is named parent.
func childSelfNs(spans []Span, parent, child string) int64 {
	self := selfTimes(spans)
	var total int64
	for i, s := range spans {
		if s.Name == child && s.Parent >= 0 && spans[s.Parent].Name == parent {
			total += self[i]
		}
	}
	return total
}

// meanSelfUs is the mean self time of the named spans in microseconds.
func (st spanStat) meanSelfUs() float64 { return ratio(us(st.self), float64(st.n)) }
