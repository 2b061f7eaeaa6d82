package qcache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/region"
	"repro/internal/relation"
)

func priceRect(lo, hi float64) region.Rect {
	return region.MustNew([]int{0}, []relation.Interval{relation.Closed(lo, hi)})
}

// TestRegionBumpSelectiveWipe: a region-scoped bump drops only the
// entries and crawl sets intersecting the bumped rect — from the shards,
// the containment directory and the store — and the survivors keep
// serving without touching the source.
func TestRegionBumpSelectiveWipe(t *testing.T) {
	ctx := context.Background()
	reg := epoch.NewRegistry()
	store := kvstore.NewMemory()
	db := newVerDB(100, 200)
	c, err := New(db, Config{Store: store, Epochs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint regions: entries + a crawl set each.
	if _, err := c.Search(ctx, pricePred(0, 30)); err != nil {
		t.Fatal(err)
	}
	c.AdmitCrawl(pricePred(10, 20), nil)
	if _, err := c.Search(ctx, pricePred(50, 90)); err != nil {
		t.Fatal(err)
	}
	c.AdmitCrawl(pricePred(60, 70), nil)
	sibling, err := c.Search(ctx, pricePred(55, 65)) // containment hit, ver 1
	if err != nil {
		t.Fatal(err)
	}
	queriesBefore := db.queries.Load()

	db.version.Store(2)
	reg.BumpRegion("verdb", priceRect(0, 40))

	st := c.Stats()
	if st.PartialWipes != 1 || st.EpochWipes != 0 {
		t.Fatalf("wipe counters = partial %d full %d, want 1 / 0", st.PartialWipes, st.EpochWipes)
	}
	if st.WipeDropped != 2 || st.WipeRetained != 2 {
		t.Fatalf("dropped/retained = %d / %d, want 2 / 2", st.WipeDropped, st.WipeRetained)
	}
	if st.Entries != 2 || st.CrawlEntries != 1 {
		t.Fatalf("post-wipe stats = %+v, want the 2 disjoint entries", st)
	}
	if _, ok := c.Peek(pricePred(0, 30)); ok {
		t.Fatal("entry intersecting the bumped rect survived")
	}
	// The sibling still serves byte-identically, with zero source queries.
	res, err := c.Search(ctx, pricePred(55, 65))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, sibling) {
		t.Fatal("sibling-region answer changed across the region bump")
	}
	if db.queries.Load() != queriesBefore {
		t.Fatal("sibling-region hit cost a source query after the region bump")
	}
	// The store dropped exactly the intersecting records: meta + 2
	// survivors remain, and a restart warms only those.
	if store.Len() != 3 {
		t.Fatalf("store has %d records after region wipe, want 3", store.Len())
	}
	c2, err := New(newVerDB(100, 200), Config{Store: store, Epochs: epoch.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Warmed != 2 {
		t.Fatalf("restart warmed %d entries, want the 2 retained", st.Warmed)
	}
}

// TestRegionFenceOnStaleAdmissions: an admission computed under a
// pre-bump epoch is installed only when its predicate is provably
// disjoint from every region bumped since — the region-aware narrowing
// of the old "equal seq or refuse" fence.
func TestRegionFenceOnStaleAdmissions(t *testing.T) {
	ctx := context.Background()
	reg := epoch.NewRegistry()
	db := newVerDB(100, 200)
	c, err := New(db, Config{Store: kvstore.NewMemory(), Epochs: reg})
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := db.Search(ctx, pricePred(50, 60))
	if err != nil {
		t.Fatal(err)
	}
	inside, err := db.Search(ctx, pricePred(10, 20))
	if err != nil {
		t.Fatal(err)
	}

	reg.BumpRegion("verdb", priceRect(0, 40))

	c.AdmitAt(pricePred(50, 60), disjoint, 1) // stale seq, disjoint rect: sound
	c.AdmitAt(pricePred(10, 20), inside, 1)   // stale seq inside the rect: refused
	if _, ok := c.Peek(pricePred(50, 60)); !ok {
		t.Fatal("disjoint stale admission refused — the fence over-rejects")
	}
	if _, ok := c.Peek(pricePred(10, 20)); ok {
		t.Fatal("stale admission inside the bumped rect installed — pre-change state served")
	}
	// Crawl sets ride the same fence.
	c.AdmitCrawlAt(pricePred(70, 80), nil, 1)
	c.AdmitCrawlAt(pricePred(20, 30), nil, 1)
	if st := c.Stats(); st.CrawlEntries != 1 {
		t.Fatalf("crawl entries = %d, want only the disjoint stale crawl", st.CrawlEntries)
	}
	// After a FULL bump no stale admission survives, however disjoint.
	reg.Bump("verdb")
	c.AdmitAt(pricePred(90, 95), disjoint, 2)
	if _, ok := c.Peek(pricePred(90, 95)); ok {
		t.Fatal("stale admission crossed an unscoped bump")
	}
}

// TestRegionBumpRace hammers exact hits, containment hits and fresh
// admissions in both the bumped and a sibling region while BumpRegion
// runs, asserting (a) no pre-change answer from the bumped region is
// served after BumpRegion returns and (b) sibling-region answers stay
// byte-identical to their pre-bump form throughout.
func TestRegionBumpRace(t *testing.T) {
	ctx := context.Background()
	reg := epoch.NewRegistry()
	db := newVerDB(100, 200)
	c, err := New(db, Config{Epochs: reg, Store: kvstore.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	// Broad complete answers covering each region: narrower predicates
	// are containment hits, the path a sloppy partial wipe would leave
	// dangling.
	if _, err := c.Search(ctx, pricePred(0, 49)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, pricePred(50, 99)); err != nil {
		t.Fatal(err)
	}
	// Pre-compute the sibling region's expected answers (all version 1).
	want := make(map[float64]hidden.Result)
	for lo := 50.0; lo < 95; lo++ {
		res, err := c.Search(ctx, pricePred(lo, lo+5))
		if err != nil {
			t.Fatal(err)
		}
		want[lo] = res
	}

	var (
		bumped  atomic.Bool
		stop    atomic.Bool
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
		stop.Store(true)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				insideBump := g%2 == 0
				lo := float64((g*7 + i) % 25)
				if !insideBump {
					lo += 50 + float64((g*3+i)%20)
				}
				pred := pricePred(lo, lo+5)
				mustBeFresh := bumped.Load()
				var res hidden.Result
				if i%3 == 0 {
					var ok bool
					res, ok = c.Peek(pred)
					if !ok {
						continue
					}
				} else {
					var err error
					res, err = c.Search(ctx, pred)
					if err != nil {
						fail("search: %v", err)
						return
					}
				}
				if insideBump && mustBeFresh {
					for _, tu := range res.Tuples {
						if tu.Values[1] != 2 {
							fail("stale version-%v answer from the bumped region after BumpRegion returned", tu.Values[1])
							return
						}
					}
				}
				if !insideBump {
					if w, ok := want[lo]; ok && !reflect.DeepEqual(res, w) {
						fail("sibling-region answer for [%v,%v] not byte-identical across the region bump", lo, lo+5)
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	db.version.Store(2)
	reg.BumpRegion("verdb", priceRect(0, 49))
	bumped.Store(true)
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	st := c.Stats()
	if st.PartialWipes != 1 || st.EpochWipes != 0 {
		t.Fatalf("wipe counters = %+v, want 1 partial, 0 full", st)
	}
	if st.Bytes < 0 || (st.Entries == 0) != (st.Bytes == 0) {
		t.Fatalf("inconsistent accounting after concurrent region wipe: %+v", st)
	}
	// Post-quiesce: bumped-region residents are version 2, sibling
	// residents version 1.
	for lo := 0.0; lo < 95; lo += 5 {
		res, ok := c.Peek(pricePred(lo, lo+4))
		if !ok {
			continue
		}
		wantVer := 2.0
		if lo >= 50 {
			wantVer = 1.0
		}
		for _, tu := range res.Tuples {
			if tu.Values[1] != wantVer {
				t.Fatalf("region [%v,%v]: resident version %v, want %v", lo, lo+4, tu.Values[1], wantVer)
			}
		}
	}
}

// TestPredicateOfKeyRectIntersectionProperty: for random predicates and
// rects, any tuple a predicate matches that lies inside the rect is a
// witness that the wipe MUST drop the predicate's entry — the
// key-decoded intersection check can over-drop but never under-drop.
// Exact keys and crawl-prefixed keys must agree with the predicate-level
// check.
func TestPredicateOfKeyRectIntersectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randPred := func() relation.Predicate {
		p := relation.Predicate{}
		if rng.Intn(4) > 0 { // numeric condition on price
			lo := rng.Float64() * 900
			p = p.WithInterval(0, relation.Interval{
				Lo: lo, Hi: lo + rng.Float64()*100,
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			})
		}
		if rng.Intn(3) == 0 { // categorical condition on color
			var cats []int
			for c := 0; c < 3; c++ {
				if rng.Intn(2) == 0 {
					cats = append(cats, c)
				}
			}
			if len(cats) > 0 {
				p = p.WithCategories(1, cats)
			}
		}
		return p
	}
	for trial := 0; trial < 2000; trial++ {
		p := randPred()
		lo := rng.Float64() * 950
		rect := priceRect(lo, lo+rng.Float64()*60)

		// The round trip through the canonical key loses nothing the
		// intersection check depends on.
		rt, ok := predOfKey(testSchema(), KeyOf(p))
		if !ok {
			t.Fatalf("trial %d: canonical key of %v undecodable", trial, p)
		}
		got := predIntersectsRect(p, rect)
		if predIntersectsRect(rt, rect) != got {
			t.Fatalf("trial %d: intersection differs across key round trip", trial)
		}
		if keyIntersects(testSchema(), KeyOf(p), rect) != got || keyIntersects(testSchema(), crawlKeyPrefix+KeyOf(p), rect) != got {
			t.Fatalf("trial %d: keyIntersects disagrees with predicate-level check", trial)
		}
		// Witness property: a matched tuple inside the rect forces true.
		for s := 0; s < 40; s++ {
			tu := relation.Tuple{ID: int64(s), Values: []float64{rng.Float64() * 1000, float64(rng.Intn(3))}}
			if p.Match(tu) && rect.ContainsTuple(tu) && !got {
				t.Fatalf("trial %d: tuple %v matches %v inside %v but predIntersectsRect said disjoint",
					trial, tu, p, rect)
			}
		}
	}
}
