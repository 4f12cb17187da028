package main

import (
	"math"
	"slices"
	"time"
)

// epoch anchors every timestamp the benchmark takes: now() is
// nanoseconds on the monotonic clock since process start, so stamps
// taken on different goroutines subtract safely.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// the smallest rank with at least p% of the samples at or below it. The
// tolerance keeps float error in p*n from pushing an exact rank up.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending; an empty slice gives 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// medianFloat is the nearest-rank p50 of unsorted values; an empty
// slice gives 0.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(50, len(s))-1]
}

// tailLadder is the sequence of percentiles the tail report climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile on tailLadder that still
// has at least minBeyond of n samples above it, so a tail figure always
// rests on enough observations to mean something.
func tailPercentile(n, minBeyond int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n > 0 && n-nearestRank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// lateness is how long after its due time a scheduled send started; a
// send that started early (never, with a sleeping generator) is 0 late.
func lateness(due, started int64) int64 {
	if started < due {
		return 0
	}
	return started - due
}

// sortedCopy returns samples sorted ascending without touching the
// caller's slice.
func sortedCopy(samples []int64) []int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio divides, reporting 0 for an empty base instead of NaN so a
// layer the workload bypasses prints as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// openLoop runs an open-loop generator: call i is due at start+i*period
// and is issued at its due time however long earlier calls took, so a
// stall shows as lateness of later calls rather than a lower send rate.
// It sleeps until each due time (never spins) and returns after the
// last call due before end. send receives the call index, its due time
// and the time it actually started.
func openLoop(start, period, end int64, send func(i, due, started int64)) {
	for i := int64(0); ; i++ {
		due := start + i*period
		if due >= end {
			return
		}
		t := now()
		if t < due {
			time.Sleep(time.Duration(due - t))
			t = now()
		}
		send(i, due, t)
	}
}
