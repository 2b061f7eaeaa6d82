// Package obs is the request-lifecycle observability layer of the QR2
// service: per-request traces with one span per pipeline stage, lock-free
// log-bucketed latency histograms aggregated per stage and outcome, and a
// ring-buffer inspector for recent and slow requests.
//
// The QR2 paper (Gunasekaran et al., ICDE 2018) measures everything in
// web-database queries spent per reranked answer. The process-lifetime
// counters on /metrics answer "how many", but not "which path did this
// request take" or "where did its microseconds go". This package answers
// both:
//
//   - A *Trace rides the request's context.Context. Every layer of the
//     answer path (service, qcache, cluster, core/dense, crawl, the hidden
//     and wdbhttp leaf databases) opens a span around its stage and closes
//     it with an outcome tag. All Trace and Timer methods are nil-safe:
//     when tracing is off FromContext returns nil and every hook degrades
//     to a couple of branches, so the hot path pays nothing measurable.
//
//   - A Collector aggregates completed traces into power-of-two-bucketed
//     atomic histograms (per stage+outcome and per decision path), keeps a
//     fixed-size ring of recent traces plus a threshold-gated slow-query
//     ring, and serves them as Prometheus histogram families, JSON
//     (GET /api/trace) and a human-readable table (GET /debug/requests).
//
// The decision path of a request — pool-hit, containment, crawl-set,
// dense, peer, or web — is derived from span evidence rather than declared
// by the layers, so it cannot drift from what actually happened.
package obs

import (
	"context"
	"sync"
	"time"
)

// Stage identifies one pipeline stage of the answer path.
type Stage uint8

const (
	// StageCanonicalize is predicate canonicalization into a cache key.
	StageCanonicalize Stage = iota
	// StagePoolLookup is the exact-match answer-cache lookup (a
	// coalesced outcome means the request waited on another flight).
	StagePoolLookup
	// StageContainment is the containment-directory probe.
	StageContainment
	// StageCrawlSet is a containment probe answered by a crawl-admitted
	// superset entry.
	StageCrawlSet
	// StageDenseTopIn is the dense-region R-tree index consultation.
	StageDenseTopIn
	// StageRingRoute is consistent-hash owner resolution.
	StageRingRoute
	// StagePeerForward is a synchronous lookup forwarded to the owning
	// replica.
	StagePeerForward
	// StageWebQuery is one round trip to the hidden web database. Only
	// spans of this stage contribute to a trace's web-query count.
	StageWebQuery
	// StageCrawl is a crawl-set construction pass.
	StageCrawl
	// StageRerank is the reranking computation that produces one page of
	// answers (it nests the stages above).
	StageRerank
	// StageEpochFence is the epoch-fenced cache admission gate.
	StageEpochFence
	// StageDegraded is a degraded serve: the resilience layer answered
	// for an unreachable source with a fabricated best-effort result
	// instead of failing the request.
	StageDegraded

	numStages
)

var stageNames = [numStages]string{
	"canonicalize", "pool_lookup", "containment", "crawl_set",
	"dense_topin", "ring_route", "peer_forward", "web_query",
	"crawl", "rerank", "epoch_fence", "degraded_serve",
}

// String returns the snake_case label used on /metrics and /api/trace.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Outcome tags how a span ended.
type Outcome uint8

const (
	// OutcomeOK is plain success.
	OutcomeOK Outcome = iota
	// OutcomeHit is a successful lookup that found its target.
	OutcomeHit
	// OutcomeMiss is a successful lookup that found nothing.
	OutcomeMiss
	// OutcomeCoalesced marks a wait on another request's in-flight work.
	OutcomeCoalesced
	// OutcomeError marks a failed span.
	OutcomeError
	// OutcomeDegraded marks a span answered by degraded serving: the
	// source was unreachable and a best-effort substitute was produced.
	OutcomeDegraded

	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "hit", "miss", "coalesced", "error", "degraded"}

// String returns the label used on /metrics and /api/trace.
func (o Outcome) String() string {
	if o < numOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// ErrOutcome maps an error to OutcomeError, and nil to fallback.
func ErrOutcome(err error, fallback Outcome) Outcome {
	if err != nil {
		return OutcomeError
	}
	return fallback
}

// Span is one completed stage of a trace. Start is the offset from the
// trace's begin time on the monotonic clock.
type Span struct {
	Stage   Stage
	Outcome Outcome
	Start   time.Duration
	Dur     time.Duration
	// Queries is the number of web-database queries attributed to the
	// span (1 for web_query spans, the total for crawl spans).
	Queries int
	// Replica is empty for spans this process recorded; a stitched
	// remote span carries the name of the replica that recorded it.
	Replica string
	// Depth is 0 for local spans and counts forward hops for stitched
	// remote spans, so renderers can indent one end-to-end tree.
	Depth uint8
}

// Trace accumulates the spans of one request. All methods are safe on a
// nil receiver (tracing off) and safe for concurrent use: parallel query
// batches append spans from many goroutines.
type Trace struct {
	id     string
	op     string
	begin  time.Time
	mu     sync.Mutex
	source string
	detail string
	spans  []Span
	// queries sums the Queries of StageWebQuery spans only, so a crawl
	// span (whose inner queries are traced individually) is not counted
	// twice.
	queries int
}

// NewTrace starts a trace for one request. op names the operation
// ("query", "next", "cluster-get", ...); id is the request ID propagated
// across replicas via the X-QR2-Request header.
func NewTrace(op, id string) *Trace {
	return &Trace{id: id, op: op, begin: time.Now(), spans: make([]Span, 0, 16)}
}

// ID returns the request ID, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetSource records the data source the request resolved to.
func (t *Trace) SetSource(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.source = name
	t.mu.Unlock()
}

// SetDetail records a short free-form description (the rank expression).
func (t *Trace) SetDetail(d string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.detail = d
	t.mu.Unlock()
}

// Degraded reports whether the trace has recorded a degraded-serve span
// so far — the service uses it to mark responses stale-ok while the
// request is still open. Nil-safe.
func (t *Trace) Degraded() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Stage == StageDegraded || sp.Outcome == OutcomeDegraded {
			return true
		}
	}
	return false
}

// Timer is an open span. The zero Timer (from a nil trace) is a no-op.
type Timer struct {
	t     *Trace
	start time.Time
	stage Stage
}

// Start opens a span. On a nil trace it returns the no-op zero Timer
// without reading the clock.
func (t *Trace) Start(stage Stage) Timer {
	if t == nil {
		return Timer{}
	}
	return Timer{t: t, start: time.Now(), stage: stage}
}

// End closes the span with an outcome.
func (tm Timer) End(o Outcome) { tm.record(tm.stage, o, 0) }

// EndAs closes the span under a different stage — used where one probe
// resolves to one of two logical stages (containment vs crawl-set).
func (tm Timer) EndAs(stage Stage, o Outcome) { tm.record(stage, o, 0) }

// EndQueries closes the span and attributes n web-database queries to it.
func (tm Timer) EndQueries(o Outcome, n int) { tm.record(tm.stage, o, n) }

// maxSpans bounds one trace's span buffer: a deep reranking request can
// touch hundreds of leaves, and an unbounded buffer times the inspector
// ring would be a memory leak shaped like a feature. Web-query counting
// continues past the cap; only span detail is dropped.
const maxSpans = 512

func (tm Timer) record(stage Stage, o Outcome, n int) {
	if tm.t == nil {
		return
	}
	d := time.Since(tm.start)
	t := tm.t
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{
			Stage:   stage,
			Outcome: o,
			Start:   tm.start.Sub(t.begin),
			Dur:     d,
			Queries: n,
		})
	}
	if stage == StageWebQuery {
		t.queries += n
	}
	t.mu.Unlock()
}

// RequestHeader is the HTTP header carrying the request ID across
// replicas, so a forwarded lookup is correlatable on both sides.
const RequestHeader = "X-QR2-Request"

type ctxKey struct{}

// With attaches a trace to a context. Attaching nil is a no-op.
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil when tracing is off.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// RequestID returns the request ID carried by the context's trace, or ""
// when the context has none.
func RequestID(ctx context.Context) string {
	if t := FromContext(ctx); t != nil {
		return t.id
	}
	return ""
}

// Path classifies the decision path a request took, derived from span
// evidence at completion time.
type Path uint8

const (
	// PathNone is a request that recorded no classifying span (for
	// example a cluster put).
	PathNone Path = iota
	// PathPool was answered from the exact-match answer cache (possibly
	// by coalescing onto another request's flight).
	PathPool
	// PathContainment was answered by a containment-directory superset.
	PathContainment
	// PathCrawlSet was answered by a crawl-admitted superset entry.
	PathCrawlSet
	// PathDense was answered by the dense-region index.
	PathDense
	// PathPeer was answered by a forwarded peer lookup.
	PathPeer
	// PathWeb spent at least one live web-database query.
	PathWeb
	// PathDegraded was served best-effort while a source's breaker was
	// open or its retries were exhausted: at least one leaf answer was
	// fabricated by degraded serving, so the response may be incomplete.
	PathDegraded

	numPaths
)

var pathNames = [numPaths]string{
	"none", "pool-hit", "containment", "crawl-set", "dense", "peer", "web",
	"degraded",
}

// String returns the label used on /metrics and /api/trace.
func (p Path) String() string {
	if p < numPaths {
		return pathNames[p]
	}
	return "unknown"
}

// TraceDoc is the JSON form of a completed trace, served by /api/trace.
type TraceDoc struct {
	ID         string    `json:"id"`
	Op         string    `json:"op"`
	Source     string    `json:"source,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	Begin      time.Time `json:"begin"`
	ElapsedNS  int64     `json:"elapsed_ns"`
	Path       string    `json:"path"`
	WebQueries int       `json:"web_queries"`
	Error      string    `json:"error,omitempty"`
	Spans      []SpanDoc `json:"spans"`

	path Path
}

// SpanDoc is the JSON form of one span. Replica and Depth are set only
// on spans stitched in from a remote subtree.
type SpanDoc struct {
	Stage   string `json:"stage"`
	Outcome string `json:"outcome"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Queries int    `json:"queries,omitempty"`
	Replica string `json:"replica,omitempty"`
	Depth   uint8  `json:"depth,omitempty"`
}

// finish snapshots the trace into its completed document plus a copy of
// the raw spans. The trace may keep receiving spans afterwards (stray
// goroutines); the snapshot is what the collector records.
func (t *Trace) finish(err error) (*TraceDoc, []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := &TraceDoc{
		ID:         t.id,
		Op:         t.op,
		Source:     t.source,
		Detail:     t.detail,
		Begin:      t.begin,
		ElapsedNS:  int64(time.Since(t.begin)),
		WebQueries: t.queries,
		Spans:      make([]SpanDoc, len(t.spans)),
	}
	if err != nil {
		doc.Error = err.Error()
	}
	var hit [numStages]bool
	coalesced, degraded := false, false
	for i, sp := range t.spans {
		doc.Spans[i] = SpanDoc{
			Stage:   sp.Stage.String(),
			Outcome: sp.Outcome.String(),
			StartNS: int64(sp.Start),
			DurNS:   int64(sp.Dur),
			Queries: sp.Queries,
			Replica: sp.Replica,
			Depth:   sp.Depth,
		}
		// Stitched remote spans are attribution only: the remote replica
		// already classified its own request, so its spans are not
		// evidence for this trace's decision path.
		if sp.Replica != "" {
			continue
		}
		if sp.Outcome == OutcomeHit {
			hit[sp.Stage] = true
		}
		if sp.Stage == StagePoolLookup && sp.Outcome == OutcomeCoalesced {
			coalesced = true
		}
		if sp.Stage == StageDegraded || sp.Outcome == OutcomeDegraded {
			degraded = true
		}
	}
	switch {
	// A degraded serve taints the whole answer regardless of how many
	// live queries the healthy sources contributed, so it is classified
	// before the web path.
	case degraded:
		doc.path = PathDegraded
	case t.queries > 0:
		doc.path = PathWeb
	case hit[StagePeerForward]:
		doc.path = PathPeer
	case hit[StageDenseTopIn]:
		doc.path = PathDense
	case hit[StageCrawlSet]:
		doc.path = PathCrawlSet
	case hit[StageContainment]:
		doc.path = PathContainment
	case hit[StagePoolLookup] || coalesced:
		doc.path = PathPool
	default:
		doc.path = PathNone
	}
	doc.Path = doc.path.String()
	return doc, append([]Span(nil), t.spans...)
}
