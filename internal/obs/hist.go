package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets: 39 power-of-two
// nanosecond buckets (bucket i holds durations in (2^(i-1), 2^i] ns,
// covering 1 ns through ~275 s) plus a final +Inf bucket. Power-of-two
// bounds make bucketing a single bits.Len64 and bound quantile error at
// 2x, which is plenty for p50/p99/p999 over stages that span five orders
// of magnitude.
const NumBuckets = 40

// Histogram is a lock-free log-bucketed latency histogram. Observe is a
// single atomic increment plus an atomic add; readers snapshot bucket by
// bucket, so a scrape may straddle concurrent observations but every
// bucket count — and therefore the derived _count — is monotone across
// scrapes.
type Histogram struct {
	buckets [NumBuckets]paddedCounter
	sum     paddedCounter // total observed nanoseconds
}

// paddedCounter spaces hot counters a cache line apart so concurrent
// observers of adjacent buckets don't false-share.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d)) // value v is in (2^(i-1), 2^i] when Len64(v-1)... see test
	if uint64(d) == uint64(1)<<(i-1) {
		i-- // exact powers of two belong to the lower bucket (inclusive upper bound)
	}
	if i >= NumBuckets-1 {
		return NumBuckets - 1
	}
	return i
}

// bucketLe returns the inclusive upper bound of bucket i in seconds;
// the final bucket is +Inf.
func bucketLe(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e9
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].n.Add(1)
	if d > 0 {
		h.sum.n.Add(uint64(d))
	}
}

// snapshot reads every bucket once. The counts may not all be from the
// same instant, but each is individually monotone.
func (h *Histogram) snapshot() (counts [NumBuckets]uint64, sum uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].n.Load()
	}
	return counts, h.sum.n.Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	counts, _ := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// quantileOf estimates the q-quantile (0 < q <= 1) over a raw count
// slice as the upper bound of the bucket containing it. Returns 0 when
// the counts are empty.
func quantileOf(counts []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i >= NumBuckets-1 {
				return time.Duration(uint64(1) << uint(NumBuckets-2))
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(uint64(1) << uint(NumBuckets-2))
}

// formatLe renders bucket i's upper bound as a Prometheus le label value.
func formatLe(i int) string {
	return strconv.FormatFloat(bucketLe(i), 'g', -1, 64)
}

// writeProm writes the histogram as Prometheus _bucket/_sum/_count rows
// for the family name with the given label pairs (no le). The _count is
// derived from the same snapshot as the buckets, so the +Inf bucket
// always equals it.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	counts, sum := h.snapshot()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < NumBuckets-1 {
			le = strconv.FormatFloat(bucketLe(i), 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}
