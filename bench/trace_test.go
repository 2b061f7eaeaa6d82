package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/qcache"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/resilience"
)

// crawlThroughStack runs a query that forces a region crawl (most tuples
// tie on the ranking attribute) through source → resilience → qcache →
// engine, every layer decorated by rec (nil = undecorated), and returns
// the answer with the cache's final statistics.
func crawlThroughStack(t *testing.T, rec *recorder) ([]relation.Tuple, qcache.Stats) {
	t.Helper()
	ctx := withReq(context.Background(), 1)
	cat := datagen.TieHeavy(3000, 0.4, 5)
	local, err := hidden.NewLocal("tieheavy", cat.Rel, 20, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(db hidden.DB, name, parent string) hidden.DB {
		out, err := rec.wrap(db, name, parent)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	raw := wrap(resilience.NewSource(defaultPolicy).Wrap(wrap(local, "source", "resilience")), "resilience", "qcache")
	cache, err := qcache.New(raw, qcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	db := wrap(cache, "qcache", "core")
	rr, err := core.New(db, core.Options{Algorithm: core.Rerank})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := rr.Rerank(ctx, core.Query{Rank: ranking.Ascending("tied"),
		Pred: relation.Predicate{}.WithInterval(0, relation.Interval{Lo: 499, Hi: 501})})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stream.NextN(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	if stream.TotalStats().DenseCrawls == 0 {
		t.Fatal("the query did not crawl; the test exercises nothing")
	}
	// A predicate inside the crawled region: served from the crawl set if
	// and only if the crawl refilled the cache.
	inside := relation.Predicate{}.WithInterval(0, relation.Interval{Lo: 500, Hi: 500}).
		WithInterval(1, relation.Interval{Lo: 100, Hi: 120})
	if _, err := db.Search(ctx, inside); err != nil {
		t.Fatal(err)
	}
	return rows, cache.Stats()
}

func TestSpanDecoratorForwardsWhatTheStackAssertsOn(t *testing.T) {
	plainRows, plain := crawlThroughStack(t, nil)
	rec := newRecorder("engine")
	tracedRows, traced := crawlThroughStack(t, rec)

	if plain.CrawlEntries == 0 || plain.CrawlHits == 0 {
		t.Fatalf("undecorated stack: crawl_entries %d crawl_hits %d; the crawl refill did not happen", plain.CrawlEntries, plain.CrawlHits)
	}
	if traced.CrawlEntries != plain.CrawlEntries || traced.CrawlHits != plain.CrawlHits {
		t.Errorf("decorated stack hides the crawl refill: crawl_entries %d vs %d, crawl_hits %d vs %d",
			traced.CrawlEntries, plain.CrawlEntries, traced.CrawlHits, plain.CrawlHits)
	}
	if traced.Hits != plain.Hits || traced.Misses != plain.Misses || traced.ContainmentHits != plain.ContainmentHits {
		t.Errorf("decorated stack took another path: %+v vs %+v", traced, plain)
	}
	if !reflect.DeepEqual(tracedRows, plainRows) {
		t.Error("decorated and undecorated stacks answered differently")
	}
	spans := rec.byReq()[1]
	for _, layer := range []string{"qcache", "resilience", "source"} {
		if len(spans[layer]) == 0 {
			t.Errorf("no %s spans recorded", layer)
		}
	}
	// Children nest inside parents, so each layer's busy time bounds its
	// child's.
	if q, r, s := busyUs(spans["qcache"]), busyUs(spans["resilience"]), busyUs(spans["source"]); q < r || r < s {
		t.Errorf("busy times do not nest: qcache %.1f resilience %.1f source %.1f", q, r, s)
	}
}

func TestSpanDecoratorKeepsEachCapabilitySet(t *testing.T) {
	rec := newRecorder("engine")
	cat := datagen.TieHeavy(50, 0.1, 1)
	local, err := hidden.NewLocal("t", cat.Rel, 10, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := rec.wrap(local, "source", "resilience")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := counted.(hidden.Counter); !ok {
		t.Error("decorated hidden.Local lost hidden.Counter")
	}
	if _, ok := resilience.NewSource(defaultPolicy).Wrap(counted).(hidden.Counter); !ok {
		t.Error("resilience no longer forwards hidden.Counter through the decorator")
	}
	cache, err := qcache.New(local, qcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	admitting, err := rec.wrap(cache, "qcache", "core")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := admitting.(hidden.Counter); ok {
		t.Error("decorated cache gained hidden.Counter")
	}
	// A capability set the decorator has no type for is refused, not
	// silently narrowed.
	if _, err := rec.wrap(admitOnly{local}, "odd", "core"); err == nil {
		t.Error("wrap accepted a database that is an Admitter but not an EpochAdmitter")
	}
	// A nil recorder decorates nothing.
	var none *recorder
	if same, err := none.wrap(local, "source", "x"); err != nil || same != hidden.DB(local) {
		t.Error("nil recorder wrapped the database")
	}
}

type admitOnly struct{ hidden.DB }

func (admitOnly) AdmitCrawl(relation.Predicate, []relation.Tuple) {}

func TestRecorderIgnoresUntaggedRequests(t *testing.T) {
	rec := newRecorder("http")
	now := time.Now()
	rec.add(0, "service", "edge", now, now.Add(time.Millisecond)) // peer traffic
	rec.add(rec.nextReq(), "service", "edge", now, now.Add(time.Millisecond))
	if got := len(rec.byReq()); got != 1 {
		t.Errorf("%d requests recorded, want 1", got)
	}
	rec.reset()
	if got := len(rec.byReq()); got != 0 {
		t.Errorf("%d requests after reset", got)
	}
}
