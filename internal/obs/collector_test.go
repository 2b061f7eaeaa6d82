package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func quietCollector(cfg CollectorConfig) *Collector {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return NewCollector(cfg)
}

func finishOne(c *Collector, id string, fill func(*Trace)) *TraceDoc {
	tr := c.Start("query", id)
	if fill != nil {
		fill(tr)
	}
	return c.Done(tr, nil)
}

// TestRingWrap: the recent ring keeps the newest Buffer traces, newest
// first, and Recent(n) limits the copy.
func TestRingWrap(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 4})
	for i := 0; i < 10; i++ {
		finishOne(c, fmt.Sprintf("r%d", i), nil)
	}
	docs := c.Recent(0, false)
	if len(docs) != 4 {
		t.Fatalf("len = %d, want 4", len(docs))
	}
	for i, want := range []string{"r9", "r8", "r7", "r6"} {
		if docs[i].ID != want {
			t.Fatalf("docs[%d].ID = %q, want %q", i, docs[i].ID, want)
		}
	}
	if docs = c.Recent(2, false); len(docs) != 2 || docs[0].ID != "r9" {
		t.Fatalf("Recent(2) = %+v", docs)
	}
	if got := c.total.Load(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
}

// TestSlowGating: only traces at or above the threshold reach the slow
// ring and the slow log; with no threshold nothing is slow.
func TestSlowGating(t *testing.T) {
	var logBuf strings.Builder
	c := NewCollector(CollectorConfig{
		Buffer: 8,
		Slow:   time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	finishOne(c, "fast", nil)
	tr := c.Start("query", "slow")
	time.Sleep(2 * time.Millisecond)
	c.Done(tr, nil)

	slow := c.Recent(0, true)
	if len(slow) != 1 || slow[0].ID != "slow" {
		t.Fatalf("slow ring = %+v", slow)
	}
	if c.slowTotal.Load() != 1 {
		t.Fatalf("slowTotal = %d", c.slowTotal.Load())
	}
	if !strings.Contains(logBuf.String(), "slow query") || !strings.Contains(logBuf.String(), "id=slow") {
		t.Fatalf("slow log missing: %q", logBuf.String())
	}

	c2 := quietCollector(CollectorConfig{Buffer: 8})
	tr = c2.Start("query", "r")
	time.Sleep(2 * time.Millisecond)
	c2.Done(tr, nil)
	if len(c2.Recent(0, true)) != 0 || c2.slowTotal.Load() != 0 {
		t.Fatal("zero threshold must disable the slow log")
	}
}

func TestServeTraces(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 8, Slow: time.Nanosecond})
	finishOne(c, "ra", func(tr *Trace) { tr.Start(StagePoolLookup).End(OutcomeHit) })
	finishOne(c, "rb", func(tr *Trace) { tr.Start(StageWebQuery).EndQueries(OutcomeOK, 3) })

	get := func(c *Collector, url string) (int, traceListDoc) {
		rec := httptest.NewRecorder()
		c.ServeTraces(rec, httptest.NewRequest("GET", url, nil))
		var doc traceListDoc
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("bad JSON: %v", err)
			}
		}
		return rec.Code, doc
	}

	code, doc := get(c, "/api/trace")
	if code != 200 || doc.Total != 2 || len(doc.Traces) != 2 {
		t.Fatalf("code %d doc %+v", code, doc)
	}
	if doc.Traces[0].ID != "rb" || doc.Traces[0].Path != "web" || doc.Traces[0].WebQueries != 3 {
		t.Fatalf("newest trace = %+v", doc.Traces[0])
	}
	if _, doc = get(c, "/api/trace?n=1"); len(doc.Traces) != 1 {
		t.Fatalf("n=1 returned %d traces", len(doc.Traces))
	}
	if _, doc = get(c, "/api/trace?id=ra"); len(doc.Traces) != 1 || doc.Traces[0].ID != "ra" {
		t.Fatalf("id filter = %+v", doc.Traces)
	}
	if _, doc = get(c, "/api/trace?id=nope"); len(doc.Traces) != 0 {
		t.Fatal("unknown id must return an empty list")
	}
	if _, doc = get(c, "/api/trace?slow=1"); len(doc.Traces) != 2 || doc.SlowTotal != 2 {
		t.Fatalf("slow list = %+v", doc)
	}

	var nilC *Collector
	rec := httptest.NewRecorder()
	nilC.ServeTraces(rec, httptest.NewRequest("GET", "/api/trace", nil))
	if rec.Code != 503 {
		t.Fatalf("nil collector must answer 503, got %d", rec.Code)
	}
}

func TestServeDebug(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 8})
	finishOne(c, "r<script>", func(tr *Trace) {
		tr.SetSource("bluenile")
		tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
	})
	rec := httptest.NewRecorder()
	c.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	body := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(body, "recent requests") {
		t.Fatalf("code %d body %q", rec.Code, body)
	}
	if !strings.Contains(body, "web_query") || !strings.Contains(body, "bluenile") {
		t.Fatal("span table missing")
	}
	if strings.Contains(body, "r<script>") {
		t.Fatal("IDs must be HTML-escaped")
	}

	var nilC *Collector
	rec = httptest.NewRecorder()
	nilC.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if rec.Code != 503 {
		t.Fatalf("nil collector must answer 503, got %d", rec.Code)
	}
}

func TestWriteMetricsFamilies(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 8})
	finishOne(c, "r1", func(tr *Trace) { tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1) })
	var b strings.Builder
	c.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE qr2_traces_total counter",
		"qr2_traces_total 1",
		"# TYPE qr2_stage_latency_seconds histogram",
		`qr2_stage_latency_seconds_bucket{stage="web_query",outcome="ok",le="+Inf"} 1`,
		`qr2_stage_latency_seconds_count{stage="web_query",outcome="ok"} 1`,
		"# TYPE qr2_request_latency_seconds histogram",
		`qr2_request_latency_seconds_bucket{path="web",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Series that saw no traffic stay out of the scrape.
	if strings.Contains(out, `stage="epoch_fence"`) || strings.Contains(out, `path="peer"`) {
		t.Fatal("empty series must be omitted")
	}
}

func TestPercentiles(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 8})
	for i := 0; i < 20; i++ {
		finishOne(c, "r", func(tr *Trace) { tr.Start(StagePoolLookup).End(OutcomeHit) })
	}
	snap := c.Snapshot("r")
	if len(snap.Request) != 1 {
		t.Fatalf("request paths = %v, want only pool-hit", snap.Request)
	}
	req := snap.Request["pool-hit"].Percentiles()
	if req.Count != 20 || req.P50 <= 0 || req.P99 < req.P50 || req.MeanS <= 0 {
		t.Fatalf("request percentiles = %+v", req)
	}
	if st := snap.Stage["pool_lookup/hit"].Percentiles(); st.Count != 20 || st.P50 <= 0 {
		t.Fatalf("stage percentiles = %+v", st)
	}
}

// TestCollectorConcurrency (run with -race): traces completing on many
// goroutines while readers scrape /api/trace, /debug/requests and the
// metrics families.
func TestCollectorConcurrency(t *testing.T) {
	c := quietCollector(CollectorConfig{Buffer: 16, Slow: time.Nanosecond})
	const writers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				finishOne(c, fmt.Sprintf("g%d-%d", g, i), func(tr *Trace) {
					tr.Start(StagePoolLookup).End(OutcomeMiss)
					tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
				})
			}
		}(g)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				c.ServeTraces(rec, httptest.NewRequest("GET", "/api/trace?n=5", nil))
				rec = httptest.NewRecorder()
				c.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests", nil))
				c.WriteMetrics(io.Discard)
				c.Snapshot("r")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := c.total.Load(); got != writers*300 {
		t.Fatalf("total = %d, want %d", got, writers*300)
	}
	docs := c.Recent(0, false)
	if len(docs) != 16 {
		t.Fatalf("ring holds %d, want 16", len(docs))
	}
}
