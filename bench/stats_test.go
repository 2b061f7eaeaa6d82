package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.05, 1}, {0.1, 1}, {0.11, 2}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{0, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}} {
		name, q, ok := highestTail(c.n)
		if name != c.want || ok != (c.want != "") {
			t.Errorf("highestTail(%d) = %q, %v; want %q", c.n, name, ok, c.want)
		}
		if ok && samplesBeyond(c.n, q) < 10 {
			t.Errorf("highestTail(%d) chose %s with %d samples beyond", c.n, name, samplesBeyond(c.n, q))
		}
	}
	if got := samplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("samplesBeyond(1000, .99) = %d", got)
	}
}

func TestUnionLenCountsOverlapsOnce(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 30}}, 20},
		{[]interval{{0, 10}, {5, 15}}, 15},                      // partial overlap
		{[]interval{{0, 100}, {10, 20}, {30, 40}}, 100},         // nested
		{[]interval{{30, 40}, {0, 10}, {5, 35}}, 40},            // unsorted, chained
		{[]interval{{0, 10}, {10, 20}}, 20},                     // touching
		{[]interval{{0, 8}, {0, 8}, {0, 8}, {0, 8}}, 8},         // a parallel batch
		{[]interval{{0, 8}, {1, 9}, {2, 10}, {20, 21}}, 10 + 1}, // staggered batch plus a straggler
	} {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestOpenLoopTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Connection idle: latency from the due time, lateness is how late the
	// generator woke up.
	lat, late := openLoopTimes(at(10), at(5), at(11), at(14))
	if lat != 4*time.Millisecond || late != time.Millisecond {
		t.Errorf("idle connection: latency %v lateness %v", lat, late)
	}
	// Connection busy until after the due time: the wait counts as
	// latency, and the generator is only late past the moment it could send.
	lat, late = openLoopTimes(at(10), at(30), at(30), at(33))
	if lat != 23*time.Millisecond || late != 0 {
		t.Errorf("busy connection: latency %v lateness %v", lat, late)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "1234 (qr2 (srv) x) S 1 1234 1234 0 -1 4194560 5000 0 0 0 250 75 0 0 20 0 9 0 100 1000000 2000 18446744073709551615"
	user, sys, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if user != 2.5e6 || sys != 0.75e6 {
		t.Errorf("user %v µs sys %v µs, want 2.5e6 and 0.75e6", user, sys)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3"} {
		if _, _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tqr2server\nVmPeak:\t 1234 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM without a VmHWM line succeeded")
	}
}

func TestReadProcReadsThisProcess(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.hwmMiB <= 0 {
		t.Errorf("peak RSS %v MiB", s.hwmMiB)
	}
}

// reportWith builds a result file in which every workload reads base on
// every end-to-end metric, except that metric name on workload reads v.
func reportWith(t *testing.T, dir, file, workload, name string, v float64) string {
	t.Helper()
	r := &report{Schema: 1, Valid: true, Workloads: map[string]*workloadReport{}}
	for _, spec := range specs {
		w := &workloadReport{Valid: true, EndToEnd: map[string]value{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = value{100, d.Unit}
		}
		if spec.Name == workload {
			w.EndToEnd[name] = value{v, "ms"}
		}
		r.Workloads[spec.Name] = w
	}
	path := filepath.Join(dir, file)
	if err := writeJSONFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	base := reportWith(t, dir, "a.json", "", "", 0)
	// Just inside the metric's bound agrees, just outside does not, in
	// either direction.
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "query_p50_ms" {
			bound = d.Bound
		}
	}
	for _, c := range []struct {
		v     float64
		agree bool
	}{{100, true}, {100 * (1 + bound - 0.02), true}, {100 * (1 - bound + 0.02), true},
		{100 * (1 + bound + 0.02), false}, {100 * (1 - bound - 0.02), false}} {
		other := reportWith(t, dir, "b.json", "cold-explore", "query_p50_ms", c.v)
		var out bytes.Buffer
		agree, err := compareReports(&out, base, other)
		if err != nil {
			t.Fatal(err)
		}
		if agree != c.agree {
			t.Errorf("query_p50_ms %v against 100: agree=%v, want %v\n%s", c.v, agree, c.agree, out.String())
		}
		if !c.agree && !strings.Contains(out.String(), "DISAGREE") {
			t.Errorf("output does not name the disagreement:\n%s", out.String())
		}
	}
	if _, err := compareReports(&bytes.Buffer{}, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing against a missing file succeeded")
	}
}
