package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. Zero for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank q-quantile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles are the tail percentiles a report may quote, highest last.
var tailQuantiles = []struct {
	Name string
	Q    float64
}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}}

// highestTail picks the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it. ok is false when even p90 does not (n < 100).
func highestTail(n int) (name string, q float64, ok bool) {
	for _, t := range tailQuantiles {
		if samplesBeyond(n, t.Q) >= 10 {
			name, q, ok = t.Name, t.Q, true
		}
	}
	return name, q, ok
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func sumOf(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once — the busy time of a layer whose calls run
// in parallel.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = iv
	}
	return total + cur.end - cur.start
}

// openLoopTimes derives one open-loop request's two numbers. The
// latency a user sees runs from when the request was due, so time spent
// queued behind a slow predecessor counts. The generator's own lateness
// is how long after it could have sent (the later of the due time and
// the connection becoming free) it actually did.
func openLoopTimes(due, connFree, sent, done time.Time) (latency, lateness time.Duration) {
	ready := due
	if connFree.After(ready) {
		ready = connFree
	}
	return done.Sub(due), sent.Sub(ready)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
