package qcache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// hotWorkload cycles `passes` times over `preds` disjoint price windows —
// an LRU-sensitive working set: it hits almost always when the cache
// holds all of it and almost never when the cache holds less.
func hotWorkload(t *testing.T, db hidden.DB, preds, passes int) {
	t.Helper()
	ctx := context.Background()
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < preds; i++ {
			lo := float64(i * 50)
			if _, err := db.Search(ctx, pricePred(lo, lo+30)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPoolNamespacesAreIsolated(t *testing.T) {
	pool := NewPool(PoolConfig{})
	a, err := pool.Namespace("a", testDB(t, 100, 50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Namespace("b", testDB(t, 40, 50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The same predicate resolves per namespace: the two sources have
	// different match sets for [0, 60].
	ra, err := a.Search(ctx, pricePred(0, 60))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(ctx, pricePred(0, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Tuples) == len(rb.Tuples) {
		t.Fatalf("namespaces shared an answer: %d vs %d tuples", len(ra.Tuples), len(rb.Tuples))
	}
	if st := a.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("namespace a stats = %+v", st)
	}
	ps := pool.Stats()
	if ps.Entries != 2 || len(ps.Namespaces) != 2 {
		t.Fatalf("pool stats = %+v", ps)
	}
	if ps.Namespaces["b"].Misses != 1 {
		t.Fatalf("pool namespace b stats = %+v", ps.Namespaces["b"])
	}
	if _, err := pool.Namespace("a", testDB(t, 10, 5), Config{}); err == nil {
		t.Fatal("duplicate namespace name accepted")
	}
}

// TestPoolHotSourceBorrowsIdleCapacity is the cross-source sharding
// demonstration: under a global budget equal to one dedicated per-source
// budget, a hot source sharing the pool with an idle source matches its
// dedicated-cache hit rate — and beats a dedicated cache holding only its
// per-source slice of the same total memory.
func TestPoolHotSourceBorrowsIdleCapacity(t *testing.T) {
	const (
		budget = 8192
		preds  = 8
		passes = 3
	)
	mk := func() *hidden.Local { return testDB(t, 1000, 20) }
	cfg := Config{DisableContainment: true}

	// PR-2 world: a dedicated cache with the full budget.
	dedicated, err := New(mk(), Config{MaxBytes: budget, Shards: 1, DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	hotWorkload(t, dedicated, preds, passes)

	// The same total memory split statically across two sources.
	halved, err := New(mk(), Config{MaxBytes: budget / 2, Shards: 1, DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	hotWorkload(t, halved, preds, passes)

	// The pool: one hot and one idle namespace over the full budget.
	pool := NewPool(PoolConfig{MaxBytes: budget, Shards: 1})
	hot, err := pool.Namespace("hot", mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Namespace("idle", mk(), cfg); err != nil {
		t.Fatal(err)
	}
	hotWorkload(t, hot, preds, passes)

	full, half, pooled := dedicated.Stats().HitRate(), halved.Stats().HitRate(), hot.Stats().HitRate()
	if full < 0.5 {
		t.Fatalf("dedicated cache did not fit the working set (hit rate %.2f); test sizes are off", full)
	}
	if pooled < full-0.01 {
		t.Fatalf("pooled hot hit rate %.2f below dedicated %.2f", pooled, full)
	}
	if pooled <= half+0.2 {
		t.Fatalf("pooled hot hit rate %.2f does not beat the static split %.2f", pooled, half)
	}
}

func TestPoolFloorProtectsQuietNamespace(t *testing.T) {
	pool := NewPool(PoolConfig{MaxBytes: 8192, Shards: 1})
	quietDB := testDB(t, 1000, 20)
	quiet, err := pool.Namespace("quiet", quietDB, Config{DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := pool.Namespace("hot", testDB(t, 1000, 20), Config{DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One entry for the quiet source, well under its floor (8192/2/2 = 2048).
	if _, err := quiet.Search(ctx, pricePred(0, 20)); err != nil {
		t.Fatal(err)
	}
	// The hot source floods the pool far past the budget.
	for i := 0; i < 50; i++ {
		lo := float64(i * 20)
		if _, err := hot.Search(ctx, pricePred(lo, lo+200)); err != nil {
			t.Fatal(err)
		}
	}
	if hot.Stats().Evictions == 0 && pool.Stats().Evictions == 0 {
		t.Fatal("flood forced no evictions; sizes are off")
	}
	// The quiet source's entry survived under its floor.
	before := quietDB.QueryCount()
	if _, err := quiet.Search(ctx, pricePred(0, 20)); err != nil {
		t.Fatal(err)
	}
	if quietDB.QueryCount() != before {
		t.Fatal("quiet namespace's floor-protected entry was evicted by foreign pressure")
	}
}

// mutableDB swaps its inner database between searches, simulating a live
// source whose answers change size over time. Name/schema/system-k stay
// fixed so the persistence fingerprint does not change.
type mutableDB struct {
	mu    sync.Mutex
	inner hidden.DB
}

func (m *mutableDB) swap(db hidden.DB) { m.mu.Lock(); m.inner = db; m.mu.Unlock() }
func (m *mutableDB) get() hidden.DB    { m.mu.Lock(); defer m.mu.Unlock(); return m.inner }

func (m *mutableDB) Name() string             { return m.get().Name() }
func (m *mutableDB) Schema() *relation.Schema { return m.get().Schema() }
func (m *mutableDB) SystemK() int             { return m.get().SystemK() }
func (m *mutableDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	return m.get().Search(ctx, p)
}

// TestRefusedAdmissionDeletesStaleRecord is the persist/replace/restart
// round trip: when a refill is refused admission (the fresh answer
// outgrew the budget), the stale persisted record for that key must be
// deleted — otherwise a restart warms back an answer memory had already
// dropped.
func TestRefusedAdmissionDeletesStaleRecord(t *testing.T) {
	// denseTestDB piles n tuples onto prices 0..5, so [0, 5] matches all
	// of them — the "grown" version of the 10-tuple source below.
	denseTestDB := func(n int) *hidden.Local {
		rel := relation.NewRelation("test", testSchema())
		for i := 0; i < n; i++ {
			rel.MustAppend(relation.Tuple{ID: int64(i), Values: []float64{float64(i % 6), float64(i % 3)}})
		}
		db, err := hidden.NewLocal("test", rel, 50, func(tu relation.Tuple) float64 { return float64(tu.ID) })
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	store := kvstore.NewMemory()
	db := &mutableDB{inner: denseTestDB(6)} // [0, 5] matches 6 tuples: small
	c, err := New(db, Config{Store: store, MaxBytes: 1000, Shards: 1, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(9000, 0)
	now := base
	c.setClock(func() time.Time { return now })
	ctx := context.Background()
	p := pricePred(0, 5)
	if _, err := c.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 { // fingerprint + the answer
		t.Fatalf("store holds %d records after fill", store.Len())
	}
	// The source grows: the same predicate now matches 48 tuples, whose
	// answer no longer fits the 1000-byte budget. Expire the resident
	// entry and refill.
	db.swap(denseTestDB(48))
	now = now.Add(2 * time.Minute)
	res, err := c.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 48 {
		t.Fatalf("refreshed answer has %d tuples", len(res.Tuples))
	}
	if st := c.Stats(); st.Entries != 0 || st.Expired != 1 {
		t.Fatalf("refused refill left stats %+v", st)
	}
	if store.Len() != 1 {
		t.Fatalf("stale record survived a refused admission: %d records", store.Len())
	}
	// A restart must come up cold for p, not warm a stale answer.
	c2, err := New(denseTestDB(48), Config{Store: store, MaxBytes: 1000, Shards: 1, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Warmed != 0 {
		t.Fatalf("restart warmed %d stale entries", st.Warmed)
	}
}

// TestContainmentHitRefreshesLRU: the complete answer serving containment
// traffic must be refreshed in its shard's LRU, or the budget evicts the
// pool's most valuable entry as "cold".
func TestContainmentHitRefreshesLRU(t *testing.T) {
	db := testDB(t, 1000, 40)
	// Budget fits the broad answer plus roughly one filler entry.
	c, err := New(db, Config{MaxBytes: 2300, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	broad := pricePred(10, 40) // 31 tuples, complete
	if res, err := c.Search(ctx, broad); err != nil || res.Overflow {
		t.Fatalf("broad fill: %v overflow=%v", err, res.Overflow)
	}
	const rounds = 15
	for i := 0; i < rounds; i++ {
		// Containment traffic through the broad answer...
		if _, err := c.Search(ctx, pricePred(15, 25)); err != nil {
			t.Fatal(err)
		}
		// ...interleaved with fresh entries that pressure the budget.
		lo := 500 + float64(i)*30
		if _, err := c.Search(ctx, pricePred(lo, lo+20)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no eviction pressure generated: %+v", st)
	}
	// The broad answer survived every round: all narrow searches were
	// containment hits and the last one still costs no web query.
	if st.ContainmentHits != rounds {
		t.Fatalf("containment hits = %d, want %d (broad answer evicted as cold)", st.ContainmentHits, rounds)
	}
	before := db.QueryCount()
	if _, err := c.Search(ctx, pricePred(15, 25)); err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != before {
		t.Fatal("broad answer no longer serves containment traffic")
	}
}

// TestConcurrentContainmentAndEvictions drives containment hits
// concurrently with budget evictions; run with -race it guards the
// touch/evict interplay introduced by the LRU refresh.
func TestConcurrentContainmentAndEvictions(t *testing.T) {
	db := testDB(t, 2000, 30)
	oracle := testDB(t, 2000, 30)
	c, err := New(db, Config{MaxBytes: 16 << 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				var p relation.Predicate
				if g%2 == 0 {
					// Broad complete answers: churn the budget.
					lo := r.Float64() * 1900
					p = pricePred(lo, lo+25)
				} else {
					// Narrow predicates: containment candidates.
					lo := 100 + r.Float64()*50
					p = pricePred(lo, lo+5)
				}
				got, err := c.Search(ctx, p)
				if err != nil {
					errc <- err
					return
				}
				want, err := oracle.Search(ctx, p)
				if err != nil {
					errc <- err
					return
				}
				if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow {
					errc <- fmt.Errorf("goroutine %d iter %d: %d/%v tuples, want %d/%v",
						g, i, len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
					return
				}
				for j := range got.Tuples {
					if got.Tuples[j].ID != want.Tuples[j].ID {
						errc <- fmt.Errorf("goroutine %d iter %d tuple %d: ID %d, want %d",
							g, i, j, got.Tuples[j].ID, want.Tuples[j].ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCrawlRefillServesInRegionPredicates: after a complete region crawl
// through the cache, predicates inside the region whose match sets fit
// under system-k are answered with zero web-database queries.
func TestCrawlRefillServesInRegionPredicates(t *testing.T) {
	db := testDB(t, 200, 10)
	truth := testDB(t, 200, 10)
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	region := pricePred(50, 100) // 51 matches >> system-k 10: crawl splits
	ex := parallel.New(c)
	out, cstats, err := crawl.All(ctx, ex, region, crawl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cstats.Complete || len(out) != 51 {
		t.Fatalf("crawl: complete=%v, %d tuples", cstats.Complete, len(out))
	}
	if st := c.Stats(); st.CrawlEntries != 1 {
		t.Fatalf("crawl set not admitted: %+v", st)
	}

	// A predicate spanning the crawl's split boundary is covered by no
	// single cached sub-answer — only the admitted region set serves it.
	before := db.QueryCount()
	narrow := pricePred(72, 78) // 7 matches <= system-k
	got, err := c.Search(ctx, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != before {
		t.Fatal("in-region predicate still paid a web-database query")
	}
	if st := c.Stats(); st.CrawlHits == 0 {
		t.Fatalf("crawl hit not counted: %+v", st)
	}
	want, err := truth.Search(ctx, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("crawl-served answer differs: %d/%v vs %d/%v",
			len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
	}
	// Crawl-served answers carry the exact match set in ID order.
	wantIDs := make(map[int64]bool, len(want.Tuples))
	for _, tu := range want.Tuples {
		wantIDs[tu.ID] = true
	}
	for i, tu := range got.Tuples {
		if !wantIDs[tu.ID] {
			t.Fatalf("unexpected tuple %d in crawl-served answer", tu.ID)
		}
		if i > 0 && got.Tuples[i-1].ID >= tu.ID {
			t.Fatal("crawl-served answer not in ID order")
		}
	}

	// A predicate matching more than system-k tuples cannot be emulated
	// (the database's top-k subset is unknowable) and must hit the web
	// database, byte-identically.
	before = db.QueryCount()
	wide := pricePred(55, 95) // 41 matches > system-k
	got, err = c.Search(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() == before {
		t.Fatal("overflowing in-region predicate served from the crawl set")
	}
	want, err = truth.Search(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Overflow || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("wide answer differs: %d/%v", len(got.Tuples), got.Overflow)
	}
	for i := range want.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("wide tuple %d: ID %d, want %d", i, got.Tuples[i].ID, want.Tuples[i].ID)
		}
	}
}

// TestCrawlRefillPersists: crawl-admitted region sets survive a restart
// through the persistent store like any other entry.
func TestCrawlRefillPersists(t *testing.T) {
	store := kvstore.NewMemory()
	db := testDB(t, 200, 10)
	c, err := New(db, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := crawl.All(ctx, parallel.New(c), pricePred(50, 100), crawl.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().CrawlEntries != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}

	db2 := testDB(t, 200, 10)
	c2, err := New(db2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.CrawlEntries != 1 {
		t.Fatalf("crawl set lost across restart: %+v", st)
	}
	before := db2.QueryCount()
	if _, err := c2.Search(ctx, pricePred(72, 78)); err != nil {
		t.Fatal(err)
	}
	if db2.QueryCount() != before {
		t.Fatal("restarted cache paid a web query inside the crawled region")
	}
}

// TestAdmitCrawlDisabledContainment: the refill is a no-op when
// containment reuse is off.
func TestAdmitCrawlDisabledContainment(t *testing.T) {
	c, err := New(testDB(t, 100, 10), Config{DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	c.AdmitCrawl(pricePred(0, 50), []relation.Tuple{{ID: 1, Values: []float64{1, 0}}})
	if st := c.Stats(); st.CrawlEntries != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolCoalescingAcrossNamespaces: identical predicates in different
// namespaces are distinct flights; identical predicates in one namespace
// still coalesce.
func TestPoolCoalescingAcrossNamespaces(t *testing.T) {
	innerA := &blockingDB{schema: testSchema(), release: make(chan struct{}), started: make(chan struct{}, 8)}
	innerB := &blockingDB{schema: testSchema(), release: make(chan struct{}), started: make(chan struct{}, 8)}
	pool := NewPool(PoolConfig{})
	a, err := pool.Namespace("a", innerA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Namespace("b", innerB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); _, _ = a.Search(ctx, pricePred(0, 100)) }()
		go func() { defer wg.Done(); _, _ = b.Search(ctx, pricePred(0, 100)) }()
	}
	// Each namespace's leader reaches its own database.
	<-innerA.started
	<-innerB.started
	deadline := time.After(5 * time.Second)
	for a.Stats().Coalesced+b.Stats().Coalesced < 2 {
		select {
		case <-deadline:
			t.Fatalf("coalesced = %d + %d", a.Stats().Coalesced, b.Stats().Coalesced)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(innerA.release)
	close(innerB.release)
	wg.Wait()
	if innerA.calls.Load() != 1 || innerB.calls.Load() != 1 {
		t.Fatalf("inner calls = %d, %d; cross-namespace flights merged", innerA.calls.Load(), innerB.calls.Load())
	}
}

// failingStore errors on every read, killing namespace registration at
// store-verification time.
type failingStore struct{ kvstore.Store }

func (failingStore) Get([]byte) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("injected store failure")
}

// TestDroppedNamespacePrefixNotReused: a namespace that fails
// registration must not free its key prefix for reuse — a later
// namespace sharing a live namespace's prefix would silently mix two
// sources' cache entries under identical canonical keys.
func TestDroppedNamespacePrefixNotReused(t *testing.T) {
	pool := NewPool(PoolConfig{})
	if _, err := pool.Namespace("broken", testDB(t, 10, 5), Config{Store: failingStore{kvstore.NewMemory()}}); err == nil {
		t.Fatal("failing store accepted")
	}
	a, err := pool.Namespace("a", testDB(t, 100, 50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Namespace("b", testDB(t, 40, 50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ra, err := a.Search(ctx, pricePred(0, 60))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(ctx, pricePred(0, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Tuples) == len(rb.Tuples) {
		t.Fatalf("prefix collision: both namespaces see %d tuples", len(ra.Tuples))
	}
	if st := b.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("namespace b stats = %+v", st)
	}
}

// TestPoolBytesMatchNamespacesAfterChurn: eight goroutines churn two
// namespaces of a small pool through admissions and evictions. Afterwards
// the pool's byte count must equal the sum of its namespaces' counts and
// of its resident entries' sizes, and stay within the pool's limit.
func TestPoolBytesMatchNamespacesAfterChurn(t *testing.T) {
	pool := NewPool(PoolConfig{MaxBytes: 32 << 10, Shards: 2})
	caches := make([]*Cache, 2)
	for i := range caches {
		c, err := pool.Namespace(fmt.Sprintf("src%d", i), testDB(t, 2000-500*i, 30), Config{})
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			c := caches[g%2]
			for i := 0; i < 150; i++ {
				var p relation.Predicate
				if i%2 == 0 {
					lo := r.Float64() * 1400
					p = pricePred(lo, lo+25)
				} else {
					lo := 100 + r.Float64()*50
					p = pricePred(lo, lo+5)
				}
				if _, err := c.Search(ctx, p); err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := pool.Stats()
	var nsBytes int64
	for _, ns := range st.Namespaces {
		nsBytes += ns.Bytes
	}
	var shardBytes, entryBytes int64
	for _, sh := range pool.shards {
		sh.mu.Lock()
		shardBytes += sh.bytes
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			entryBytes += el.Value.(*entry).size
		}
		sh.mu.Unlock()
	}
	if st.Bytes != nsBytes || st.Bytes != shardBytes || st.Bytes != entryBytes {
		t.Fatalf("pool counts %d bytes; namespaces %d, shards %d, entries %d", st.Bytes, nsBytes, shardBytes, entryBytes)
	}
	if st.Bytes > st.Limit {
		t.Fatalf("pool holds %d bytes over its %d limit", st.Bytes, st.Limit)
	}
	if st.Evictions == 0 {
		t.Fatalf("no churn: %+v", st)
	}
}
