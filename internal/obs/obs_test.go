package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestNilSafety: every hook degrades to a no-op when tracing is off — a
// nil trace, the zero Timer, and a nil collector must all be callable.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace ID")
	}
	tr.SetSource("x")
	tr.SetDetail("y")
	tm := tr.Start(StageWebQuery)
	if tm.t != nil {
		t.Fatal("nil trace Start must return the zero Timer")
	}
	tm.End(OutcomeOK)
	tm.EndAs(StageCrawlSet, OutcomeHit)
	tm.EndQueries(OutcomeOK, 5)

	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("bare context must carry no trace")
	}
	if With(ctx, nil) != ctx {
		t.Fatal("attaching a nil trace must return the context unchanged")
	}
	if RequestID(ctx) != "" {
		t.Fatal("bare context must carry no request ID")
	}

	var c *Collector
	if c.Start("query", "r1") != nil {
		t.Fatal("nil collector Start must return nil")
	}
	if c.Done(nil, nil) != nil {
		t.Fatal("nil collector Done must return nil")
	}
	if c.Recent(10, false) != nil {
		t.Fatal("nil collector Recent must return nil")
	}
	if snap := c.Snapshot("r"); len(snap.Request) != 0 || len(snap.Stage) != 0 || snap.Traces != 0 {
		t.Fatalf("nil collector Snapshot must be empty, got %+v", snap)
	}
	c.WriteMetrics(nil) // must not panic
}

func TestContextPlumbing(t *testing.T) {
	tr := NewTrace("query", "r42")
	ctx := With(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext must return the attached trace")
	}
	if RequestID(ctx) != "r42" {
		t.Fatalf("RequestID = %q, want r42", RequestID(ctx))
	}
	if id := RequestID(context.Background()); id != "" {
		t.Fatalf("RequestID without a trace = %q, want empty", id)
	}
}

// done builds a TraceDoc from a trace without a collector.
func done(t *Trace, err error) *TraceDoc {
	doc, _ := t.finish(err)
	return doc
}

func TestPathDerivation(t *testing.T) {
	cases := []struct {
		name string
		fill func(tr *Trace)
		want string
	}{
		{"none", func(tr *Trace) {}, "none"},
		{"pool-hit", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeHit)
		}, "pool-hit"},
		{"coalesced counts as pool-hit", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeCoalesced)
		}, "pool-hit"},
		{"containment", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeMiss)
			tr.Start(StageContainment).End(OutcomeHit)
		}, "containment"},
		{"crawl-set outranks containment", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeMiss)
			tr.Start(StageContainment).EndAs(StageCrawlSet, OutcomeHit)
		}, "crawl-set"},
		{"dense", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeMiss)
			tr.Start(StageDenseTopIn).End(OutcomeHit)
		}, "dense"},
		{"peer", func(tr *Trace) {
			tr.Start(StageRingRoute).End(OutcomeMiss)
			tr.Start(StagePeerForward).End(OutcomeHit)
		}, "peer"},
		{"any web query outranks everything", func(tr *Trace) {
			tr.Start(StagePoolLookup).End(OutcomeHit)
			tr.Start(StagePeerForward).End(OutcomeHit)
			tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
		}, "web"},
	}
	for _, tc := range cases {
		tr := NewTrace("query", "r1")
		tc.fill(tr)
		if doc := done(tr, nil); doc.Path != tc.want {
			t.Errorf("%s: path = %q, want %q", tc.name, doc.Path, tc.want)
		}
	}
}

// TestWebQueryCounting: only web_query spans add to the trace's query
// count; a crawl span reports its total as metadata but must not double
// count the leaf queries traced inside it.
func TestWebQueryCounting(t *testing.T) {
	tr := NewTrace("query", "r1")
	tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
	tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
	tr.Start(StageCrawl).EndQueries(OutcomeOK, 40)
	doc := done(tr, nil)
	if doc.WebQueries != 2 {
		t.Fatalf("WebQueries = %d, want 2 (crawl metadata must not count)", doc.WebQueries)
	}
	var crawlSpan *SpanDoc
	for i := range doc.Spans {
		if doc.Spans[i].Stage == "crawl" {
			crawlSpan = &doc.Spans[i]
		}
	}
	if crawlSpan == nil || crawlSpan.Queries != 40 {
		t.Fatalf("crawl span must carry its query total: %+v", crawlSpan)
	}
}

// TestMaxSpansCap: span detail is bounded but query accounting is not.
func TestMaxSpansCap(t *testing.T) {
	tr := NewTrace("query", "r1")
	for i := 0; i < maxSpans+100; i++ {
		tr.Start(StageWebQuery).EndQueries(OutcomeOK, 1)
	}
	doc := done(tr, nil)
	if len(doc.Spans) != maxSpans {
		t.Fatalf("len(Spans) = %d, want cap %d", len(doc.Spans), maxSpans)
	}
	if doc.WebQueries != maxSpans+100 {
		t.Fatalf("WebQueries = %d, want %d (counting continues past the cap)",
			doc.WebQueries, maxSpans+100)
	}
}

func TestTraceDocFields(t *testing.T) {
	tr := NewTrace("query", "r9")
	tr.SetSource("bluenile")
	tr.SetDetail("price")
	tm := tr.Start(StagePoolLookup)
	time.Sleep(time.Millisecond)
	tm.End(OutcomeHit)
	doc := done(tr, errors.New("boom"))
	if doc.ID != "r9" || doc.Op != "query" || doc.Source != "bluenile" || doc.Detail != "price" {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Error != "boom" {
		t.Fatalf("Error = %q", doc.Error)
	}
	if doc.ElapsedNS <= 0 || len(doc.Spans) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	sp := doc.Spans[0]
	if sp.Stage != "pool_lookup" || sp.Outcome != "hit" || sp.DurNS < int64(time.Millisecond) {
		t.Fatalf("span = %+v", sp)
	}
}

func TestErrOutcome(t *testing.T) {
	if ErrOutcome(nil, OutcomeHit) != OutcomeHit {
		t.Fatal("nil error must keep the fallback")
	}
	if ErrOutcome(errors.New("x"), OutcomeHit) != OutcomeError {
		t.Fatal("an error must map to OutcomeError")
	}
}

func TestEnumStrings(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		if s.String() == "unknown" || s.String() == "" {
			t.Fatalf("stage %d has no name", s)
		}
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.String() == "unknown" || o.String() == "" {
			t.Fatalf("outcome %d has no name", o)
		}
	}
	for p := Path(0); p < numPaths; p++ {
		if p.String() == "unknown" || p.String() == "" {
			t.Fatalf("path %d has no name", p)
		}
	}
	if Stage(200).String() != "unknown" || Outcome(200).String() != "unknown" || Path(200).String() != "unknown" {
		t.Fatal("out-of-range enums must print unknown")
	}
}
