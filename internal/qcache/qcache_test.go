package qcache

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/relation"
)

// testSchema is a two-attribute schema: numeric price, categorical color.
func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000},
		relation.Attribute{Name: "color", Kind: relation.Categorical, Categories: []string{"red", "green", "blue"}},
	)
}

// testDB builds a small hidden database: n tuples with price i and color
// i%3, system-ranked by ascending price.
func testDB(t testing.TB, n, systemK int) *hidden.Local {
	t.Helper()
	rel := relation.NewRelation("test", testSchema())
	for i := 0; i < n; i++ {
		rel.MustAppend(relation.Tuple{ID: int64(i), Values: []float64{float64(i), float64(i % 3)}})
	}
	db, err := hidden.NewLocal("test", rel, systemK, func(tu relation.Tuple) float64 { return tu.Values[0] })
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func pricePred(lo, hi float64) relation.Predicate {
	return relation.Predicate{}.WithInterval(0, relation.Closed(lo, hi))
}

func TestKeyCanonical(t *testing.T) {
	// Construction order must not matter.
	a := relation.Predicate{}.
		WithInterval(0, relation.Closed(10, 20)).
		WithCategories(1, []int{2, 0})
	b := relation.Predicate{}.
		WithCategories(1, []int{0, 2, 0}).
		WithInterval(0, relation.Closed(10, 20))
	if KeyOf(a) != KeyOf(b) {
		t.Fatal("equivalent predicates key differently")
	}
	// A full interval constrains nothing.
	c := pricePred(10, 20).WithInterval(5, relation.Full())
	if KeyOf(c) != KeyOf(pricePred(10, 20)) {
		t.Fatal("full-interval condition changed the key")
	}
	// Negative zero collapses onto positive zero.
	if KeyOf(pricePred(math.Copysign(0, -1), 20)) != KeyOf(pricePred(0, 20)) {
		t.Fatal("-0 and +0 bounds key differently")
	}
	// Distinct predicates must not collide.
	distinct := []relation.Predicate{
		{},
		pricePred(10, 20),
		pricePred(10, 21),
		pricePred(10, 20).WithCategories(1, []int{0}),
		pricePred(10, 20).WithCategories(1, []int{1}),
		relation.Predicate{}.WithInterval(0, relation.OpenLo(10, 20)),
		relation.Predicate{}.WithCategories(1, []int{0, 1, 2}),
	}
	seen := map[string]int{}
	for i, p := range distinct {
		k := KeyOf(p)
		if j, dup := seen[k]; dup {
			t.Fatalf("predicates %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

// TestKeyOfBytesPinned pins KeyOf's bytes: ring ownership, shard
// placement and persisted q/ keys all hash them, so any change to the
// layout silently moves every answer. The cases cover categorical
// conditions, open and closed ends, ±Inf, -0 and a dropped full interval.
func TestKeyOfBytesPinned(t *testing.T) {
	negz := math.Copysign(0, -1)
	inf := math.Inf(1)
	cases := []struct {
		name string
		p    relation.Predicate
		hex  string
	}{
		{"empty", relation.Predicate{}, ""},
		{"closed", relation.Predicate{}.WithInterval(0, relation.Closed(40, 45)),
			"6e000000000000000000004440000000000080464000"},
		{"open both", relation.Predicate{}.WithInterval(0, relation.Interval{Lo: 0.1, Hi: 0.3, LoOpen: true, HiOpen: true}),
			"6e000000009a9999999999b93f333333333333d33f03"},
		{"open lo", relation.Predicate{}.WithInterval(2, relation.OpenLo(-5, 5)),
			"6e0200000000000000000014c0000000000000144001"},
		{"open hi", relation.Predicate{}.WithInterval(2, relation.OpenHi(-5, 5)),
			"6e0200000000000000000014c0000000000000144002"},
		{"-inf lo", relation.Predicate{}.WithInterval(0, relation.Interval{Lo: -inf, Hi: 7}),
			"6e00000000000000000000f0ff0000000000001c4000"},
		{"+inf hi open", relation.Predicate{}.WithInterval(0, relation.Interval{Lo: 3, Hi: inf, HiOpen: true}),
			"6e000000000000000000000840000000000000f07f02"},
		{"-0 lo", relation.Predicate{}.WithInterval(0, relation.Closed(negz, 20)),
			"6e000000000000000000000000000000000000344000"},
		{"-0 hi", relation.Predicate{}.WithInterval(0, relation.Closed(-20, negz)),
			"6e0000000000000000000034c0000000000000000000"},
		{"full dropped", relation.Predicate{}.WithInterval(0, relation.Closed(1, 2)).WithInterval(3, relation.Full()),
			"6e00000000000000000000f03f000000000000004000"},
		{"only full", relation.Predicate{}.WithInterval(1, relation.Full()), ""},
		{"open full kept", relation.Predicate{}.WithInterval(0, relation.Interval{Lo: -inf, Hi: inf, LoOpen: true}),
			"6e00000000000000000000f0ff000000000000f07f01"},
		{"cats", relation.Predicate{}.WithCategories(1, []int{2, 0, 2}),
			"6301000000020000000000000002000000"},
		{"mixed", relation.Predicate{}.WithInterval(0, relation.Closed(10, 20)).WithCategories(1, []int{1}),
			"6e00000000000000000000244000000000000034400063010000000100000001000000"},
		{"cats wide", relation.Predicate{}.WithCategories(4, []int{300, 7}),
			"630400000002000000070000002c010000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString([]byte(KeyOf(c.p))); got != c.hex {
			t.Errorf("%s: KeyOf = %s, want %s", c.name, got, c.hex)
		}
	}
}

func TestSearchDecoratesAndCounts(t *testing.T) {
	db := testDB(t, 100, 10)
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := pricePred(5, 50)
	want, err := db.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	db.ResetQueryCount()

	got, err := c.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow {
		t.Fatalf("cached search differs: %d tuples overflow=%v, want %d overflow=%v",
			len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
	}
	for i := range got.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("tuple %d: ID %d, want %d", i, got.Tuples[i].ID, want.Tuples[i].ID)
		}
	}
	if db.QueryCount() != 1 {
		t.Fatalf("first search issued %d inner queries, want 1", db.QueryCount())
	}
	// Repeat: served from cache, inner untouched.
	if _, err := c.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != 1 {
		t.Fatalf("repeat search issued %d inner queries, want 1", db.QueryCount())
	}
	// Same filter built differently still hits.
	same := relation.Predicate{}.WithInterval(0, relation.Closed(5, 50)).WithInterval(5, relation.Full())
	if _, err := c.Search(ctx, same); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 entry", st)
	}
	if st.HitRate() < 0.6 {
		t.Fatalf("hit rate %.2f", st.HitRate())
	}
}

func TestCallerCannotCorruptCache(t *testing.T) {
	db := testDB(t, 50, 10)
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.Search(ctx, pricePred(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Tuples {
		res.Tuples[i] = relation.Tuple{ID: -1}
	}
	again, err := c.Search(ctx, pricePred(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	if again.Tuples[0].ID == -1 {
		t.Fatal("caller mutation leaked into the cache")
	}
}

func TestTTLExpiry(t *testing.T) {
	db := testDB(t, 100, 10)
	c, err := New(db, Config{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.setClock(func() time.Time { return now })
	ctx := context.Background()
	if _, err := c.Search(ctx, pricePred(0, 10)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := c.Search(ctx, pricePred(0, 10)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("entry expired too early: %+v", st)
	}
	now = now.Add(2 * time.Minute)
	if _, err := c.Search(ctx, pricePred(0, 10)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Expired != 1 || st.Misses != 2 {
		t.Fatalf("stats after expiry = %+v, want 1 expired, 2 misses", st)
	}
	if db.QueryCount() != 2 {
		t.Fatalf("inner queries = %d, want 2", db.QueryCount())
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	db := testDB(t, 1000, 20)
	// Room for only a handful of 20-tuple results in one shard.
	c, err := New(db, Config{MaxBytes: 4096, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const searches = 50
	for i := 0; i < searches; i++ {
		if _, err := c.Search(ctx, pricePred(float64(i*10), float64(i*10+200))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 4096, st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
	if st.Entries >= searches {
		t.Fatalf("all %d entries resident despite budget", st.Entries)
	}
	// The most recent search must still be resident.
	db.ResetQueryCount()
	last := searches - 1
	if _, err := c.Search(ctx, pricePred(float64(last*10), float64(last*10+200))); err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != 0 {
		t.Fatal("most recently used entry was evicted")
	}
}

// blockingDB parks every Search until release is closed, so a test can
// hold many identical searches in flight at once.
type blockingDB struct {
	schema  *relation.Schema
	release chan struct{}
	started chan struct{} // one token per Search that entered
	calls   atomic.Int64
}

func (b *blockingDB) Name() string             { return "blocking" }
func (b *blockingDB) Schema() *relation.Schema { return b.schema }
func (b *blockingDB) SystemK() int             { return 10 }

func (b *blockingDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	b.calls.Add(1)
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return hidden.Result{}, ctx.Err()
	}
	return hidden.Result{Tuples: []relation.Tuple{{ID: 42, Values: []float64{1, 0}}}}, nil
}

func TestCoalescing(t *testing.T) {
	inner := &blockingDB{
		schema:  testSchema(),
		release: make(chan struct{}),
		started: make(chan struct{}, 64),
	}
	c, err := New(inner, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const users = 16
	var wg sync.WaitGroup
	results := make([]hidden.Result, users)
	errs := make([]error, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Search(ctx, pricePred(0, 100))
		}(i)
	}
	// Wait for the leader to reach the inner database, give the other
	// goroutines time to join its flight, then release.
	<-inner.started
	deadline := time.After(5 * time.Second)
	for c.Stats().Coalesced < users-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d searches coalesced", c.Stats().Coalesced)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(inner.release)
	wg.Wait()
	for i := 0; i < users; i++ {
		if errs[i] != nil {
			t.Fatalf("user %d: %v", i, errs[i])
		}
		if len(results[i].Tuples) != 1 || results[i].Tuples[0].ID != 42 {
			t.Fatalf("user %d got %+v", i, results[i])
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("%d identical concurrent searches reached the database, want 1", got)
	}
	st := c.Stats()
	if st.Coalesced != users-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d coalesced, 1 miss", st, users-1)
	}
}

func TestWaiterRetriesAfterLeaderCancelled(t *testing.T) {
	inner := &blockingDB{
		schema:  testSchema(),
		release: make(chan struct{}),
		started: make(chan struct{}, 4),
	}
	c, err := New(inner, Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Search(leaderCtx, pricePred(0, 100))
		leaderDone <- err
	}()
	<-inner.started
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Search(context.Background(), pricePred(0, 100))
		waiterDone <- err
	}()
	// Let the waiter join the flight, then kill the leader; the waiter
	// must become the new leader and succeed.
	deadline := time.After(5 * time.Second)
	for c.Stats().Coalesced < 1 {
		select {
		case <-deadline:
			t.Fatal("waiter never joined the flight")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancelLeader()
	if err := <-leaderDone; err == nil {
		t.Fatal("cancelled leader reported success")
	}
	<-inner.started // the waiter's own retry reached the database
	close(inner.release)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	db := testDB(t, 100, 10)
	flaky := &hidden.Flaky{Inner: db, FailEvery: 1} // first call fails
	c, err := New(flaky, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Search(ctx, pricePred(0, 10)); err == nil {
		t.Fatal("injected failure swallowed")
	}
	flaky.FailEvery = 0
	if _, err := c.Search(ctx, pricePred(0, 10)); err != nil {
		t.Fatalf("search after transient failure: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 entry from 2 misses", st)
	}
}

func TestConcurrentStress(t *testing.T) {
	db := testDB(t, 2000, 25)
	c, err := New(db, Config{MaxBytes: 32 << 10, TTL: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := testDB(t, 2000, 25)
	ctx := context.Background()
	const (
		goroutines = 16
		iters      = 200
		preds      = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (g*7 + i) % preds
				p := pricePred(float64(n*40), float64(n*40+300))
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
					errc <- fmt.Errorf("goroutine %d iter %d: %d tuples, want %d",
						g, i, len(got.Tuples), len(want.Tuples))
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
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced != goroutines*iters {
		t.Fatalf("lookups unaccounted for: %+v", st)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stress run exercised no hits or no evictions: %+v", st)
	}
	if st.Bytes > 32<<10 {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
	// The database saw only misses, never hits or coalesced waiters.
	if db.QueryCount() != st.Misses {
		t.Fatalf("inner queries %d != misses %d", db.QueryCount(), st.Misses)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := kvstore.NewMemory()
	db := testDB(t, 200, 10)
	c1, err := New(db, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c1.Search(ctx, pricePred(float64(i*20), float64(i*20+50))); err != nil {
			t.Fatal(err)
		}
	}

	// A new cache over the same store and an equivalent source boots warm.
	db2 := testDB(t, 200, 10)
	c2, err := New(db2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Warmed != 5 || st.Entries != 5 {
		t.Fatalf("warm boot stats = %+v, want 5 warmed entries", st)
	}
	got, err := c2.Search(ctx, pricePred(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if db2.QueryCount() != 0 {
		t.Fatal("warm entry did not absorb the search")
	}
	want, err := db.Search(ctx, pricePred(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("persisted result has %d tuples, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID || got.Tuples[i].Values[0] != want.Tuples[i].Values[0] {
			t.Fatalf("persisted tuple %d differs: %+v vs %+v", i, got.Tuples[i], want.Tuples[i])
		}
	}
}

func TestFingerprintInvalidation(t *testing.T) {
	store := kvstore.NewMemory()
	c1, err := New(testDB(t, 200, 10), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c1.Search(ctx, pricePred(0, 50)); err != nil {
		t.Fatal(err)
	}
	if store.Len() < 2 { // fingerprint + one entry
		t.Fatalf("store holds %d records", store.Len())
	}
	// Same data, different system-k: every cached answer is wrong now.
	c2, err := New(testDB(t, 200, 25), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Warmed != 0 || st.Entries != 0 {
		t.Fatalf("stale store survived a fingerprint change: %+v", st)
	}
	if store.Len() != 1 { // only the new fingerprint
		t.Fatalf("stale records not wiped: %d left", store.Len())
	}
}

func TestPersistenceExpiredEntriesDropped(t *testing.T) {
	store := kvstore.NewMemory()
	db := testDB(t, 200, 10)
	c1, err := New(db, Config{Store: store, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	c1.setClock(func() time.Time { return base })
	if _, err := c1.Search(context.Background(), pricePred(0, 50)); err != nil {
		t.Fatal(err)
	}
	// Reopen under the real clock: the record stored at Unix(5000) is
	// decades past its one-minute TTL and must be dropped, not warmed.
	c2, err := New(testDB(t, 200, 10), Config{Store: store, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Warmed != 0 {
		t.Fatalf("expired record warmed the cache: %+v", st)
	}
}

func TestPersistentStoreRespectsBudget(t *testing.T) {
	store := kvstore.NewMemory()
	db := testDB(t, 1000, 20)
	c, err := New(db, Config{MaxBytes: 4096, Shards: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.Search(ctx, pricePred(float64(i*10), float64(i*10+200))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget never forced an eviction: %+v", st)
	}
	// The store mirrors residency: one record per resident entry plus
	// the fingerprint — evicted and unadmitted answers must not pile up.
	if store.Len() != st.Entries+1 {
		t.Fatalf("store holds %d records for %d resident entries", store.Len(), st.Entries)
	}
	// A reopened cache under the same budget warms exactly the stored set.
	c2, err := New(testDB(t, 1000, 20), Config{MaxBytes: 4096, Shards: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().Warmed; got != st.Entries {
		t.Fatalf("warmed %d entries, want %d", got, st.Entries)
	}
}

func TestPurge(t *testing.T) {
	store := kvstore.NewMemory()
	db := testDB(t, 100, 10)
	c, err := New(db, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Search(ctx, pricePred(0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.Purge(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("entries survived Purge")
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d records after Purge", store.Len())
	}
	if _, err := c.Search(ctx, pricePred(0, 50)); err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != 2 {
		t.Fatalf("inner queries = %d, want 2 (purge forced a refill)", db.QueryCount())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := New(testDB(t, 10, 5), Config{TTL: -time.Second}); err == nil {
		t.Fatal("negative TTL accepted")
	}
}

// TestPredicateOfKeyRoundTrip: the canonical key decodes, against a
// schema whose attribute kinds match the conditions, back to a predicate
// with the identical canonical key.
func TestPredicateOfKeyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		var p relation.Predicate
		attrs := make([]relation.Attribute, 4)
		for a := range attrs {
			attrs[a] = relation.Attribute{Name: fmt.Sprint("a", a), Kind: relation.Numeric, Min: -100, Max: 100}
			switch r.Intn(3) {
			case 0:
			case 1:
				lo := r.Float64()*100 - 50
				p = p.WithInterval(a, relation.Interval{
					Lo: lo, Hi: lo + r.Float64()*40,
					LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0,
				})
			case 2:
				cats := make([]int, 1+r.Intn(4))
				for j := range cats {
					cats[j] = r.Intn(6)
				}
				p = p.WithCategories(a, cats)
				attrs[a] = relation.Attribute{Name: attrs[a].Name, Kind: relation.Categorical,
					Categories: []string{"c0", "c1", "c2", "c3", "c4", "c5"}}
			}
		}
		s := relation.MustSchema(attrs...)
		key := KeyOf(p)
		back, ok := predOfKey(s, key)
		if !ok {
			t.Fatalf("trial %d: key %q did not decode", i, key)
		}
		if KeyOf(back) != key {
			t.Fatalf("trial %d: round trip changed key", i)
		}
		if back, ok := predOfKey(s, crawlKeyPrefix+key); !ok || KeyOf(back) != key {
			t.Fatalf("trial %d: crawl-marked key did not decode to the same predicate", i)
		}
	}
	if _, ok := predOfKey(testSchema(), "x-garbage"); ok {
		t.Fatal("garbage key decoded")
	}
}

// TestContainmentReuse: a complete answer serves a strictly narrower
// predicate without touching the inner database.
func TestContainmentReuse(t *testing.T) {
	db := testDB(t, 100, 40) // [100, 140) has 40 tuples: complete, not overflowing... see below
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// [10, 40] matches 31 tuples < systemK 40: complete.
	broad := pricePred(10, 40)
	if res, err := c.Search(ctx, broad); err != nil || res.Overflow {
		t.Fatalf("broad fill: %v overflow=%v", err, res.Overflow)
	}
	before := db.QueryCount()
	narrow := pricePred(15, 25)
	got, err := c.Search(ctx, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != before {
		t.Fatalf("containment hit still queried the web database (%d -> %d)", before, db.QueryCount())
	}
	want, err := db.Search(ctx, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow {
		t.Fatalf("containment answer differs: %d/%v vs %d/%v",
			len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
	}
	for i := range want.Tuples {
		if got.Tuples[i].ID != want.Tuples[i].ID {
			t.Fatalf("tuple %d: ID %d vs %d", i, got.Tuples[i].ID, want.Tuples[i].ID)
		}
	}
	st := c.Stats()
	if st.ContainmentHits != 1 || st.CompleteEntries == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("containment hits must count into the hit rate: %+v", st)
	}
}

// TestContainmentNotUsedForOverflowingAnswers: a truncated answer must
// never serve a narrower predicate.
func TestContainmentNotUsedForOverflowingAnswers(t *testing.T) {
	db := testDB(t, 100, 10)
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	broad := pricePred(0, 90) // 91 matches >> systemK 10: overflow
	if res, err := c.Search(ctx, broad); err != nil || !res.Overflow {
		t.Fatalf("broad fill: %v overflow=%v", err, res.Overflow)
	}
	before := db.QueryCount()
	// The narrower range [50, 60] has matches the truncated answer lacks.
	got, err := c.Search(ctx, pricePred(50, 60))
	if err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() == before {
		t.Fatal("narrower predicate served from a truncated answer")
	}
	if len(got.Tuples) != 10 {
		t.Fatalf("got %d tuples", len(got.Tuples))
	}
	if st := c.Stats(); st.ContainmentHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestContainmentReuseProperty: for random base regions whose answer is
// complete, every random strictly narrower predicate (numeric and
// categorical narrowing) is answered with zero web-database queries and
// byte-identical results to a direct query.
func TestContainmentReuseProperty(t *testing.T) {
	db := testDB(t, 500, 60)
	truth := testDB(t, 500, 60) // identical twin: the uncached oracle
	c, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(47))
	reused := 0
	for trial := 0; trial < 200; trial++ {
		lo := r.Float64() * 450
		width := r.Float64() * 55 // <= 55 matching tuples: usually complete
		base := pricePred(lo, lo+width)
		res, err := c.Search(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow {
			continue
		}
		// Narrow numerically and, on odd trials, categorically too.
		nlo := lo + r.Float64()*width/2
		nhi := nlo + r.Float64()*(lo+width-nlo)
		narrow := pricePred(nlo, nhi)
		if trial%2 == 1 {
			narrow = narrow.WithCategories(1, []int{r.Intn(3), r.Intn(3)})
		}
		before := db.QueryCount()
		got, err := c.Search(ctx, narrow)
		if err != nil {
			t.Fatal(err)
		}
		if db.QueryCount() != before {
			t.Fatalf("trial %d: narrower predicate paid a web query", trial)
		}
		reused++
		want, err := truth.Search(ctx, narrow)
		if err != nil {
			t.Fatal(err)
		}
		if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("trial %d: %d/%v vs direct %d/%v", trial,
				len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
		}
		for i := range want.Tuples {
			if got.Tuples[i].ID != want.Tuples[i].ID {
				t.Fatalf("trial %d tuple %d: ID %d vs %d", trial, i, got.Tuples[i].ID, want.Tuples[i].ID)
			}
			for j := range want.Tuples[i].Values {
				if got.Tuples[i].Values[j] != want.Tuples[i].Values[j] {
					t.Fatalf("trial %d tuple %d value %d differs", trial, i, j)
				}
			}
		}
	}
	if reused < 50 {
		t.Fatalf("only %d containment reuses exercised; property too weak", reused)
	}
}

// TestContainmentDisabled: the config switch turns the path off.
func TestContainmentDisabled(t *testing.T) {
	db := testDB(t, 100, 40)
	c, err := New(db, Config{DisableContainment: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Search(ctx, pricePred(10, 40)); err != nil {
		t.Fatal(err)
	}
	before := db.QueryCount()
	if _, err := c.Search(ctx, pricePred(15, 25)); err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() == before {
		t.Fatal("containment served although disabled")
	}
	if st := c.Stats(); st.ContainmentHits != 0 || st.CompleteEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestContainmentEvictionUnregisters: once the byte budget evicts a
// complete answer, narrower predicates must query again.
func TestContainmentEvictionUnregisters(t *testing.T) {
	db := testDB(t, 100, 40)
	// One shard, budget sized to hold roughly one answer.
	c, err := New(db, Config{Shards: 1, MaxBytes: 2500})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Search(ctx, pricePred(10, 40)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().CompleteEntries == 0 {
		t.Fatal("complete answer not registered")
	}
	// Fill with other complete answers until the first is evicted.
	for i := 0; i < 20 && c.Stats().Evictions == 0; i++ {
		lo := 50 + float64(i)
		if _, err := c.Search(ctx, pricePred(lo, lo+20)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Skip("budget did not force an eviction; sizes changed")
	}
	if got, entries := c.Stats().CompleteEntries, c.Stats().Entries; got > entries {
		t.Fatalf("containment directory (%d) larger than resident set (%d)", got, entries)
	}
}
