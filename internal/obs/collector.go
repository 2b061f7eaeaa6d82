package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector aggregates completed traces: latency histograms per
// stage+outcome and per decision path, a ring of recent traces, and a
// threshold-gated ring of slow traces. All methods are safe on a nil
// receiver, so callers can hold a nil *Collector when tracing is off.
type Collector struct {
	stage   [numStages][numOutcomes]Histogram
	request [numPaths]Histogram

	slow   time.Duration
	logger *slog.Logger

	total      atomic.Uint64
	slowTotal  atomic.Uint64
	webQueries atomic.Uint64

	mu       sync.Mutex
	ring     traceRing
	slowRing traceRing

	// exemplars keeps the slowest request per (path, latency bucket) in
	// the current exemplar window, so histogram outliers on /metrics link
	// to /api/trace?id=... while the trace is still likely in the ring.
	exemplars [numPaths][NumBuckets]exemplar
	exWindow  time.Time
}

// exemplar is the slowest observation recorded in a bucket's window.
type exemplar struct {
	id  string
	dur time.Duration
}

// exemplarWindow is how long bucket exemplars accumulate before being
// reset; roughly the lifetime of a trace in a busy ring.
const exemplarWindow = time.Minute

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	// Buffer is the capacity of the recent-trace ring (default 256).
	Buffer int
	// Slow is the slow-query threshold; traces at or above it enter the
	// slow ring and are logged. Zero disables the slow log.
	Slow time.Duration
	// Logger receives one line per slow query (nil: slog.Default).
	Logger *slog.Logger
}

// NewCollector builds a collector.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	slowCap := 64
	if slowCap > cfg.Buffer {
		slowCap = cfg.Buffer
	}
	return &Collector{
		slow:     cfg.Slow,
		logger:   logger,
		ring:     traceRing{docs: make([]*TraceDoc, cfg.Buffer)},
		slowRing: traceRing{docs: make([]*TraceDoc, slowCap)},
	}
}

// Start begins a trace for one request, or returns nil when the
// collector is nil (tracing off).
func (c *Collector) Start(op, id string) *Trace {
	if c == nil {
		return nil
	}
	return NewTrace(op, id)
}

// Done completes a trace: spans are folded into the stage histograms,
// the request latency into its path's histogram, and the snapshot into
// the rings. Done with a nil trace or collector is a no-op.
func (c *Collector) Done(t *Trace, err error) *TraceDoc {
	if c == nil || t == nil {
		return nil
	}
	doc, spans := t.finish(err)
	for _, sp := range spans {
		// Stitched remote spans stay out of the local stage histograms:
		// the recording replica already counted them, so a fleet merge of
		// per-replica snapshots observes every span exactly once.
		if sp.Replica != "" {
			continue
		}
		c.stage[sp.Stage][sp.Outcome].Observe(sp.Dur)
	}
	elapsed := time.Duration(doc.ElapsedNS)
	c.request[doc.path].Observe(elapsed)
	c.total.Add(1)
	c.webQueries.Add(uint64(doc.WebQueries))
	slow := c.slow > 0 && elapsed >= c.slow
	now := time.Now()
	c.mu.Lock()
	c.ring.push(doc)
	if slow {
		c.slowRing.push(doc)
	}
	if now.Sub(c.exWindow) > exemplarWindow {
		c.exemplars = [numPaths][NumBuckets]exemplar{}
		c.exWindow = now
	}
	if ex := &c.exemplars[doc.path][bucketOf(elapsed)]; doc.ID != "" && elapsed > ex.dur {
		*ex = exemplar{id: doc.ID, dur: elapsed}
	}
	c.mu.Unlock()
	if slow {
		c.slowTotal.Add(1)
		c.logger.Warn("slow query",
			"id", doc.ID, "op", doc.Op, "source", doc.Source,
			"path", doc.Path, "web_queries", doc.WebQueries,
			"elapsed", elapsed, "detail", doc.Detail)
	}
	return doc
}

// traceRing is a fixed-capacity overwrite ring; Done holds c.mu while
// pushing, readers hold it while copying out.
type traceRing struct {
	docs []*TraceDoc
	next int
}

func (r *traceRing) push(d *TraceDoc) {
	if len(r.docs) == 0 {
		return
	}
	r.docs[r.next] = d
	r.next = (r.next + 1) % len(r.docs)
}

// newestFirst copies up to n traces out, most recent first, skipping the
// newest offset entries (pagination).
func (r *traceRing) newestFirst(offset, n int) []*TraceDoc {
	if offset < 0 {
		offset = 0
	}
	if n <= 0 || n > len(r.docs) {
		n = len(r.docs)
	}
	out := make([]*TraceDoc, 0, n)
	for i := 1 + offset; i <= len(r.docs) && len(out) < n; i++ {
		d := r.docs[(r.next-i+len(r.docs))%len(r.docs)]
		if d == nil {
			break
		}
		out = append(out, d)
	}
	return out
}

// Recent returns up to n completed traces, most recent first (n <= 0:
// the whole ring). slowOnly restricts to the slow-query ring.
func (c *Collector) Recent(n int, slowOnly bool) []*TraceDoc {
	return c.RecentPage(0, n, slowOnly)
}

// RecentPage is Recent with the newest offset traces skipped, so a
// debug page can walk back through the whole ring one page at a time.
func (c *Collector) RecentPage(offset, n int, slowOnly bool) []*TraceDoc {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if slowOnly {
		return c.slowRing.newestFirst(offset, n)
	}
	return c.ring.newestFirst(offset, n)
}

// traceListDoc is the JSON document served by GET /api/trace.
type traceListDoc struct {
	Total     uint64      `json:"total"`
	SlowTotal uint64      `json:"slow_total"`
	SlowNS    int64       `json:"slow_threshold_ns,omitempty"`
	Traces    []*TraceDoc `json:"traces"`
}

// ServeTraces handles GET /api/trace. Query parameters: n limits the
// count, slow=1 selects the slow-query ring, id selects one trace.
func (c *Collector) ServeTraces(w http.ResponseWriter, r *http.Request) {
	if c == nil {
		http.Error(w, `{"error":"tracing disabled"}`, http.StatusServiceUnavailable)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	slowOnly := r.URL.Query().Get("slow") == "1"
	docs := c.Recent(n, slowOnly)
	if id := r.URL.Query().Get("id"); id != "" {
		filtered := docs[:0:0]
		for _, d := range docs {
			if d.ID == id {
				filtered = append(filtered, d)
			}
		}
		docs = filtered
	}
	out := traceListDoc{
		Total:     c.total.Load(),
		SlowTotal: c.slowTotal.Load(),
		SlowNS:    int64(c.slow),
		Traces:    docs,
	}
	if out.Traces == nil {
		out.Traces = []*TraceDoc{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// debugPageSize is the default /debug/requests page size.
const debugPageSize = 50

// ServeDebug handles GET /debug/requests with a human-readable table of
// recent and slow requests, in the spirit of x/net/trace. Query
// parameters: n sets the page size (default 50), page walks back through
// the recent ring past the first page. Every interpolated string —
// including stitched remote span attribution, which peers control — is
// HTML-escaped.
func (c *Collector) ServeDebug(w http.ResponseWriter, r *http.Request) {
	if c == nil {
		http.Error(w, "tracing disabled", http.StatusServiceUnavailable)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	if n <= 0 {
		n = debugPageSize
	}
	page, _ := strconv.Atoi(r.URL.Query().Get("page"))
	if page < 0 {
		page = 0
	}
	recent := c.RecentPage(page*n, n, false)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>qr2 requests</title>"+
		"<style>body{font-family:monospace}table{border-collapse:collapse}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}"+
		"details{margin:2px 0}</style></head><body>\n")
	fmt.Fprintf(w, "<h1>recent requests</h1><p>%d completed, %d slow (threshold %v)</p>\n",
		c.total.Load(), c.slowTotal.Load(), c.slow)
	if page == 0 {
		c.writeDebugTable(w, "slow", c.Recent(n, true))
	}
	c.writeDebugTable(w, fmt.Sprintf("recent (page %d)", page), recent)
	if page > 0 {
		fmt.Fprintf(w, `<a href="?page=%d&n=%d">newer</a> `, page-1, n)
	}
	if len(recent) == n {
		fmt.Fprintf(w, `<a href="?page=%d&n=%d">older</a>`, page+1, n)
	}
	fmt.Fprintf(w, "\n</body></html>\n")
}

func (c *Collector) writeDebugTable(w io.Writer, title string, docs []*TraceDoc) {
	fmt.Fprintf(w, "<h2>%s (%d)</h2>\n", html.EscapeString(title), len(docs))
	if len(docs) == 0 {
		fmt.Fprintf(w, "<p>none</p>\n")
		return
	}
	fmt.Fprintf(w, "<table><tr><th>when</th><th>id</th><th>op</th><th>source</th>"+
		"<th>path</th><th>queries</th><th>elapsed</th><th>detail</th><th>spans</th></tr>\n")
	for _, d := range docs {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"+
			"<td>%d</td><td>%v</td><td>%s</td><td><details><summary>%d</summary><pre>",
			d.Begin.Format("15:04:05.000"), html.EscapeString(d.ID),
			html.EscapeString(d.Op), html.EscapeString(d.Source),
			html.EscapeString(d.Path), d.WebQueries,
			time.Duration(d.ElapsedNS), html.EscapeString(d.Detail), len(d.Spans))
		for _, sp := range d.Spans {
			indent := int(sp.Depth)
			if indent > 8 {
				indent = 8
			}
			fmt.Fprintf(w, "%s%-14s %-9s +%-12v %v",
				strings.Repeat("  ", indent),
				html.EscapeString(sp.Stage), html.EscapeString(sp.Outcome),
				time.Duration(sp.StartNS), time.Duration(sp.DurNS))
			if sp.Queries > 0 {
				fmt.Fprintf(w, "  queries=%d", sp.Queries)
			}
			if sp.Replica != "" {
				fmt.Fprintf(w, "  @%s", html.EscapeString(sp.Replica))
			}
			fmt.Fprintf(w, "\n")
		}
		if d.Error != "" {
			fmt.Fprintf(w, "error: %s\n", html.EscapeString(d.Error))
		}
		fmt.Fprintf(w, "</pre></details></td></tr>\n")
	}
	fmt.Fprintf(w, "</table>\n")
}

// WriteMetrics appends the collector's Prometheus families to w:
// qr2_stage_latency_seconds{stage,outcome}, qr2_request_latency_seconds
// {path}, qr2_traces_total and qr2_slow_requests_total. Empty
// stage/outcome and path series are omitted to keep scrapes compact.
func (c *Collector) WriteMetrics(w io.Writer) {
	if c == nil {
		return
	}
	fmt.Fprintf(w, "# HELP qr2_traces_total Completed request traces.\n")
	fmt.Fprintf(w, "# TYPE qr2_traces_total counter\n")
	fmt.Fprintf(w, "qr2_traces_total %d\n", c.total.Load())
	fmt.Fprintf(w, "# HELP qr2_slow_requests_total Requests at or above the slow-query threshold.\n")
	fmt.Fprintf(w, "# TYPE qr2_slow_requests_total counter\n")
	fmt.Fprintf(w, "qr2_slow_requests_total %d\n", c.slowTotal.Load())

	fmt.Fprintf(w, "# HELP qr2_stage_latency_seconds Per-stage span latency by outcome.\n")
	fmt.Fprintf(w, "# TYPE qr2_stage_latency_seconds histogram\n")
	for s := Stage(0); s < numStages; s++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			h := &c.stage[s][o]
			if h.Count() == 0 {
				continue
			}
			labels := fmt.Sprintf("stage=%q,outcome=%q", s.String(), o.String())
			h.writeProm(w, "qr2_stage_latency_seconds", labels)
		}
	}

	fmt.Fprintf(w, "# HELP qr2_request_latency_seconds End-to-end request latency by decision path.\n")
	fmt.Fprintf(w, "# TYPE qr2_request_latency_seconds histogram\n")
	c.mu.Lock()
	exemplars := c.exemplars
	c.mu.Unlock()
	for p := Path(0); p < numPaths; p++ {
		h := &c.request[p]
		counts, sum := h.snapshot()
		var cum uint64
		for _, n := range counts {
			cum += n
		}
		if cum == 0 {
			continue
		}
		// Bucket rows are written by hand instead of via writeProm so each
		// can carry an OpenMetrics-style exemplar: the trace ID of the
		// slowest request that landed in the bucket this window, linking
		// the outlier to /api/trace?id=...
		labels := fmt.Sprintf("path=%q", p.String())
		cum = 0
		for i, n := range counts {
			cum += n
			le := "+Inf"
			if i < NumBuckets-1 {
				le = strconv.FormatFloat(bucketLe(i), 'g', -1, 64)
			}
			fmt.Fprintf(w, "qr2_request_latency_seconds_bucket{%s,le=%q} %d", labels, le, cum)
			if ex := exemplars[p][i]; ex.id != "" {
				fmt.Fprintf(w, " # {trace_id=%q} %g", ex.id, ex.dur.Seconds())
			}
			fmt.Fprintf(w, "\n")
		}
		fmt.Fprintf(w, "qr2_request_latency_seconds_sum{%s} %g\n", labels, float64(sum)/1e9)
		fmt.Fprintf(w, "qr2_request_latency_seconds_count{%s} %d\n", labels, cum)
	}
}
