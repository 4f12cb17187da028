package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{1, 10}, {10, 10}, {11, 20}, {50, 50}, {51, 60}, {90, 90}, {90.1, 100}, {99, 100}, {100, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99.99); got != 7 {
		t.Errorf("single-sample p99.99 = %d, want 7", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {200000, 99.99},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLateness(t *testing.T) {
	if got := lateness(100, 250); got != 150 {
		t.Errorf("late start: %d, want 150", got)
	}
	if got := lateness(100, 100); got != 0 {
		t.Errorf("on time: %d, want 0", got)
	}
	if got := lateness(100, 90); got != 0 {
		t.Errorf("early start counts as on time: %d, want 0", got)
	}
}

func TestOpenLoopIssuesEverySendOnSchedule(t *testing.T) {
	start := now()
	const period, n = int64(2e6), 10
	var dues []int64
	openLoop(start, period, start+n*period, func(i, due, started int64) {
		if due != start+i*period {
			t.Errorf("send %d due at %d, want %d", i, due, start+i*period)
		}
		if started < due {
			t.Errorf("send %d started %d ns before its due time", i, due-started)
		}
		dues = append(dues, due)
	})
	if len(dues) != n {
		t.Fatalf("%d sends, want %d", len(dues), n)
	}
}

func TestSeqCheckFlagsDuplicatesReordersAndStrays(t *testing.T) {
	o := &oracle{}
	c := &seqCheck{name: "g", next: 3, step: 5}
	for _, s := range []int64{3, 8, 13} {
		c.observe(o, s)
	}
	if o.err() != nil || c.got != 3 {
		t.Fatalf("in-order stream rejected: %v (got %d)", o.err(), c.got)
	}
	c.observe(o, 13) // duplicate
	if o.bad.Load() != 1 {
		t.Fatal("duplicate not flagged")
	}
	c.observe(o, 23) // skips 18: reordered or wrong
	if o.bad.Load() != 2 {
		t.Fatal("gap not flagged")
	}
}

func TestInputsExpectedMatchesEnumeration(t *testing.T) {
	w, _ := findWorkload("monitor")
	in := newInputs(w, 42)
	const n = 2345
	count := make([]int64, w.generators)
	for s := int64(0); s < n; s++ {
		count[in.gen(s)]++
	}
	for g := range count {
		if got := in.expected(g, n); got != count[g] {
			t.Fatalf("expected(%d, %d) = %d, enumeration says %d", g, n, got, count[g])
		}
	}
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	w, _ := findWorkload("rgma")
	a, b, c := newInputs(w, 7), newInputs(w, 7), newInputs(w, 8)
	if a.insertSQL(123) != b.insertSQL(123) {
		t.Fatal("same seed, different statement")
	}
	differ := false
	for s := int64(0); s < 50; s++ {
		differ = differ || a.insertSQL(s) != c.insertSQL(s)
	}
	if !differ {
		t.Fatal("seed does not change the inputs")
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	xs := []float64{5, 1, 4, 2, 3, 6}
	if got := medianFloat(xs); got != 3 {
		t.Fatalf("nearest-rank p50 of 1..6 = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Fatal("medianFloat sorted its argument")
	}
}

// TestSliceMedians checks that a burst confined to a minority of slices
// leaves the slice medians at the quiet slices' level, where the pooled
// figures would move.
func TestSliceMedians(t *testing.T) {
	r := &liveResult{marks: []sliceMark{{}}}
	cpu, delivered := int64(0), int64(0)
	for k := 0; k < 5; k++ {
		perRTT, perCPU := int64(100_000), int64(10_000) // 0.1 ms, 10 us
		if k == 1 {
			perRTT, perCPU = 900_000, 90_000 // a loaded slice
		}
		for i := 0; i < 100; i++ {
			r.rtt = append(r.rtt, perRTT+int64(i))
		}
		cpu += 100 * perCPU
		delivered += 100
		r.marks = append(r.marks, sliceMark{cpu: cpu, delivered: delivered, rttN: len(r.rtt)})
	}
	rtt, c := r.sliceMedians()
	if rtt != 0.100049 || c != 10 {
		t.Fatalf("slice medians rtt %v ms, cpu %v us; want 0.100049 and 10", rtt, c)
	}
}
