package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBucketOf pins the bucket invariant: bucket i holds durations in
// (2^(i-1), 2^i] ns, with exact powers of two on the inclusive upper
// bound of their own bucket.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {-5, 0}, {1, 0},
		{2, 1},         // exact power: 2 ends bucket 1 = (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3}, // (4, 8]
		{1024, 10}, {1025, 11},
		{time.Duration(1) << 38, 38},
		{time.Duration(1)<<38 + 1, 39}, // above the last finite bound → +Inf
		{time.Hour, 39},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Exhaustive invariant around every finite bucket boundary.
	for i := 1; i < NumBuckets-1; i++ {
		hi := time.Duration(uint64(1) << uint(i))
		lo := time.Duration(uint64(1) << uint(i-1))
		if got := bucketOf(hi); got != i {
			t.Errorf("upper bound %d: bucket %d, want %d", hi, got, i)
		}
		if got := bucketOf(lo + 1); got != i {
			t.Errorf("lower bound+1 %d: bucket %d, want %d", lo+1, got, i)
		}
	}
}

func TestBucketLeMatchesBuckets(t *testing.T) {
	for i := 0; i < NumBuckets-1; i++ {
		wantNS := float64(uint64(1) << uint(i))
		if got := bucketLe(i) * 1e9; got != wantNS {
			t.Errorf("bucketLe(%d) = %g s, want %g ns", i, got, wantNS)
		}
	}
}

func TestQuantileAndCount(t *testing.T) {
	var h Histogram
	if histData(&h).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 90 fast observations and 10 slow ones: p50 in the fast bucket,
	// p99 in the slow one. Quantiles report bucket upper bounds.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket (64,128]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000) // ~1 ms
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := histData(&h).Quantile(0.5); got != 128 {
		t.Fatalf("p50 = %d, want 128 (upper bound of (64,128])", got)
	}
	if got := histData(&h).Quantile(0.99); got < 1_000_000 || got > 2_000_000 {
		t.Fatalf("p99 = %d, want within (2^19, 2^21]", got)
	}
}

// TestPromExposition parses writeProm output: cumulative buckets, +Inf
// equal to _count, and the exact label syntax /metrics promises.
func TestPromExposition(t *testing.T) {
	var h Histogram
	h.Observe(100)
	h.Observe(200_000)
	h.Observe(3 * time.Second)
	var b strings.Builder
	h.writeProm(&b, "qr2_stage_latency_seconds", `stage="web_query",outcome="ok"`)
	out := b.String()

	var prev uint64
	var bucketRows int
	var infVal, countVal, sumVal float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed row %q", line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(name, "qr2_stage_latency_seconds_bucket{"):
			bucketRows++
			if !strings.Contains(name, `stage="web_query",outcome="ok",le="`) {
				t.Fatalf("bucket row missing labels: %q", line)
			}
			if uint64(val) < prev {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			prev = uint64(val)
			if strings.Contains(name, `le="+Inf"`) {
				infVal = val
			}
		case strings.HasPrefix(name, "qr2_stage_latency_seconds_sum{"):
			sumVal = val
		case strings.HasPrefix(name, "qr2_stage_latency_seconds_count{"):
			countVal = val
		default:
			t.Fatalf("unexpected row %q", line)
		}
	}
	if bucketRows != NumBuckets {
		t.Fatalf("bucket rows = %d, want %d", bucketRows, NumBuckets)
	}
	if infVal != 3 || countVal != 3 {
		t.Fatalf("+Inf = %g, _count = %g, want both 3", infVal, countVal)
	}
	wantSum := (100 + 200_000 + float64(3*time.Second)) / 1e9
	if diff := sumVal - wantSum; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("_sum = %g, want %g", sumVal, wantSum)
	}
}

// TestPromNoLabels: a label-free family must not emit empty braces.
func TestPromNoLabels(t *testing.T) {
	var h Histogram
	h.Observe(5)
	var b strings.Builder
	h.writeProm(&b, "x_seconds", "")
	out := b.String()
	if strings.Contains(out, "{}") {
		t.Fatalf("empty label braces in %q", out)
	}
	if !strings.Contains(out, "x_seconds_bucket{le=\"+Inf\"} 1") ||
		!strings.Contains(out, "\nx_seconds_count 1\n") {
		t.Fatalf("unexpected exposition:\n%s", out)
	}
}

// TestHistogramHammer drives one histogram from many writers while a
// scraper reads concurrently (run with -race): the total must come out
// exact, and every scrape must see a monotone, internally cumulative
// view — no torn buckets.
func TestHistogramHammer(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	var h Histogram
	var stop atomic.Bool
	var prevCount uint64
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for !stop.Load() {
			counts, _ := h.snapshot()
			var total uint64
			for _, c := range counts {
				total += c
			}
			if total < prevCount {
				t.Errorf("count went backwards: %d -> %d", prevCount, total)
				return
			}
			prevCount = total
			// A Prometheus render mid-hammer must stay well formed.
			var b strings.Builder
			h.writeProm(&b, "x", "")
			if !strings.Contains(b.String(), `le="+Inf"`) {
				t.Error("scrape missing +Inf bucket")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations over many buckets.
				h.Observe(time.Duration(1 + (i%20)*(g+1)*137))
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	<-scraperDone
	if got := h.Count(); got != writers*perG {
		t.Fatalf("final count = %d, want %d", got, writers*perG)
	}
	var b strings.Builder
	h.writeProm(&b, "x", "")
	if !strings.Contains(b.String(), fmt.Sprintf(`x_bucket{le="+Inf"} %d`, writers*perG)) {
		t.Fatalf("final +Inf bucket must equal the exact total:\n%s", b.String())
	}
}
