package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
)

func mustRect(t *testing.T, attr int, lo, hi float64) region.Rect {
	t.Helper()
	return region.MustNew([]int{attr}, []relation.Interval{relation.Closed(lo, hi)})
}

func getBody(t *testing.T, srv *Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s returned %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

func getJSON(t *testing.T, srv *Server, path string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal([]byte(getBody(t, srv, path)), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mutableDB is a hidden database whose tuple values shift with a version
// counter, so a "live source change" is one atomic store away.
type mutableDB struct {
	name    string
	k       int
	n       int
	version atomic.Int64
	schema  *relation.Schema
}

func newMutableDB(name string, n, k int) *mutableDB {
	db := &mutableDB{
		name: name, n: n, k: k,
		schema: relation.MustSchema(
			relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
			relation.Attribute{Name: "size", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
		),
	}
	db.version.Store(1)
	return db
}

func (d *mutableDB) Name() string             { return d.name }
func (d *mutableDB) Schema() *relation.Schema { return d.schema }
func (d *mutableDB) SystemK() int             { return d.k }

func (d *mutableDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	shift := float64(d.version.Load() - 1)
	var res hidden.Result
	for i := 0; i < d.n; i++ {
		t := relation.Tuple{ID: int64(i), Values: []float64{float64(i) + shift, float64(d.n - i)}}
		if !p.Match(t) {
			continue
		}
		if len(res.Tuples) == d.k {
			res.Overflow = true
			break
		}
		res.Tuples = append(res.Tuples, t)
	}
	return res, nil
}

// TestChangeProbeBumpsEpochAndWipes drives the full service-level
// lifecycle: fill the answer cache and the dense index, mutate the live
// source, probe, and verify the bump wiped both layers and surfaced on
// /api/stats and /metrics.
func TestChangeProbeBumpsEpochAndWipes(t *testing.T) {
	ctx := context.Background()
	db := newMutableDB("live", 300, 40)
	srv, err := New(Config{
		Sources: map[string]SourceConfig{
			"live": {DB: db, Cache: &qcache.Config{}},
		},
		ChangeSentinels: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := srv.sources["live"]

	// Warm both layers: an answer-cache entry and a dense-index entry.
	if _, err := src.cache.Search(ctx, relation.Predicate{}.WithInterval(0, relation.Closed(10, 30))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ix.Insert(mustRect(t, 0, 100, 200), nil); err != nil {
		t.Fatal(err)
	}
	if src.cache.Len() == 0 || src.ix.Len() == 0 {
		t.Fatal("layers not warmed")
	}

	// Baseline probe, then an unchanged probe: no bump.
	for i := 0; i < 2; i++ {
		if bumped, err := srv.ChangeProbe(ctx, "live"); err != nil || bumped {
			t.Fatalf("probe %d: bumped=%v err=%v", i, bumped, err)
		}
	}
	// Mutate the live source and probe again: bump, wipes everywhere.
	db.version.Store(2)
	bumped, err := srv.ChangeProbe(ctx, "live")
	if err != nil || !bumped {
		t.Fatalf("probe over mutated source: bumped=%v err=%v", bumped, err)
	}
	if src.cache.Len() != 0 {
		t.Fatalf("answer cache kept %d entries across the bump", src.cache.Len())
	}
	if src.ix.Len() != 0 {
		t.Fatalf("dense index kept %d entries across the bump", src.ix.Len())
	}
	if got := srv.Epochs().Seq("live"); got != 2 {
		t.Fatalf("epoch seq = %d, want 2", got)
	}

	// The epoch section reaches /api/stats.
	rec := getJSON(t, srv, "/api/stats")
	sources := rec["sources"].(map[string]any)
	live := sources["live"].(map[string]any)
	ep := live["epoch"].(map[string]any)
	if ep["seq"].(float64) != 2 || ep["mismatches"].(float64) != 1 || ep["probes"].(float64) != 3 {
		t.Fatalf("epoch stats doc = %v", ep)
	}
	if live["dense_wipes"].(float64) != 1 {
		t.Fatalf("dense_wipes = %v, want 1", live["dense_wipes"])
	}
	cacheDoc := live["cache"].(map[string]any)
	if cacheDoc["epoch_wipes"].(float64) != 1 || cacheDoc["epoch_seq"].(float64) != 2 {
		t.Fatalf("cache epoch counters = %v", cacheDoc)
	}

	// And /metrics carries the new rows.
	body := getBody(t, srv, "/metrics")
	for _, want := range []string{
		`qr2_source_epoch{source="live"} 2`,
		`qr2_change_probes_total{source="live"} 3`,
		`qr2_change_probe_mismatches_total{source="live"} 1`,
		`qr2_qcache_epoch_wipes_total{source="live"} 1`,
		`qr2_dense_wipes_total{source="live"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}

	// An unknown source is refused.
	if _, err := srv.ChangeProbe(ctx, "nope"); err == nil {
		t.Fatal("probe of unknown source succeeded")
	}
}

// TestBootWipesDenseIndexBehindEpoch: a dense store whose recorded epoch
// is behind the source's recovered lineage (here: a schema-surface
// change across a restart) is wiped at boot before it can serve.
func TestBootWipesDenseIndexBehindEpoch(t *testing.T) {
	cacheStore, denseStore := kvstore.NewMemory(), kvstore.NewMemory()
	mk := func(k int) (*Server, error) {
		return New(Config{Sources: map[string]SourceConfig{
			"live": {DB: newMutableDB("live", 200, k), Cache: &qcache.Config{Store: cacheStore}, DenseStore: denseStore},
		}})
	}
	srv, err := mk(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.sources["live"].ix.Insert(mustRect(t, 0, 0, 50), nil); err != nil {
		t.Fatal(err)
	}
	if srv.sources["live"].ix.EpochSeq() != 1 {
		t.Fatalf("boot dense epoch = %d, want 1", srv.sources["live"].ix.EpochSeq())
	}

	// Restart with a changed system-k: the cache's fingerprint check
	// advances the epoch lineage to 2; the dense store is still marked 1
	// and must be wiped at boot.
	srv2, err := mk(25)
	if err != nil {
		t.Fatal(err)
	}
	src := srv2.sources["live"]
	if got := srv2.Epochs().Seq("live"); got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
	if src.ix.Len() != 0 {
		t.Fatalf("stale dense index survived the boot epoch check (%d entries)", src.ix.Len())
	}
	if src.ix.EpochSeq() != 2 {
		t.Fatalf("dense epoch after boot wipe = %d, want 2", src.ix.EpochSeq())
	}

	// A third boot on the same (now consistent) stores wipes nothing.
	srv3, err := mk(25)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv3.sources["live"].ix.Stats(); st.Wipes != 0 {
		t.Fatalf("consistent boot still wiped the dense index: %+v", st)
	}
}

// TestRegionBumpScopedServiceWipes: a region-scoped bump at the service
// level partial-wipes the answer cache and the dense index — disjoint
// state survives in both layers — and the partial-wipe counters surface
// on /api/stats and /metrics.
func TestRegionBumpScopedServiceWipes(t *testing.T) {
	ctx := context.Background()
	db := newMutableDB("live", 300, 40)
	srv, err := New(Config{
		Sources: map[string]SourceConfig{
			"live": {DB: db, Cache: &qcache.Config{}},
		},
		ChangeSentinels: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := srv.sources["live"]

	// Two cache entries and two dense entries, one of each per region.
	hot := relation.Predicate{}.WithInterval(0, relation.Closed(10, 30))
	coldPred := relation.Predicate{}.WithInterval(0, relation.Closed(200, 230))
	for _, p := range []relation.Predicate{hot, coldPred} {
		if _, err := src.cache.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.ix.Insert(mustRect(t, 0, 0, 50), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ix.Insert(mustRect(t, 0, 300, 400), nil); err != nil {
		t.Fatal(err)
	}

	srv.Epochs().BumpRegion("live", mustRect(t, 0, 0, 60))

	if src.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after the scoped bump, want the 1 disjoint", src.cache.Len())
	}
	if _, ok := src.cache.Peek(coldPred); !ok {
		t.Fatal("disjoint cache entry lost to a scoped bump")
	}
	if src.ix.Len() != 1 {
		t.Fatalf("dense index holds %d entries, want the 1 disjoint", src.ix.Len())
	}
	if src.ix.EpochSeq() != 2 {
		t.Fatalf("dense epoch = %d after scoped wipe, want 2", src.ix.EpochSeq())
	}

	rec := getJSON(t, srv, "/api/stats")
	live := rec["sources"].(map[string]any)["live"].(map[string]any)
	if live["epoch"].(map[string]any)["partial_bumps"].(float64) != 1 {
		t.Fatalf("epoch doc = %v, want 1 partial bump", live["epoch"])
	}
	if live["dense_region_wipes"].(float64) != 1 || live["dense_wipes"].(float64) != 0 {
		t.Fatalf("dense wipe counters = %v / %v, want 1 region, 0 full", live["dense_region_wipes"], live["dense_wipes"])
	}
	cacheDoc := live["cache"].(map[string]any)
	if cacheDoc["partial_wipes"].(float64) != 1 || cacheDoc["epoch_wipes"].(float64) != 0 {
		t.Fatalf("cache wipe counters = %v", cacheDoc)
	}
	if cacheDoc["wipe_dropped_entries"].(float64) != 1 || cacheDoc["wipe_retained_entries"].(float64) != 1 {
		t.Fatalf("dropped/retained = %v / %v, want 1 / 1",
			cacheDoc["wipe_dropped_entries"], cacheDoc["wipe_retained_entries"])
	}

	body := getBody(t, srv, "/metrics")
	for _, want := range []string{
		`qr2_qcache_partial_wipes_total{source="live"} 1`,
		`qr2_qcache_wipe_dropped_entries_total{source="live"} 1`,
		`qr2_qcache_wipe_retained_total{source="live"} 1`,
		`qr2_dense_region_wipes_total{source="live"} 1`,
		`qr2_qcache_epoch_wipes_total{source="live"} 0`,
		`qr2_dense_wipes_total{source="live"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// topPrices runs one ranked query through /api/query and returns the
// price of each row on page 1.
func topPrices(t *testing.T, srv *Server, source, rank string, k int) []float64 {
	t.Helper()
	form := url.Values{"source": {source}, "rank": {rank}, "k": {strconv.Itoa(k)}}
	req := httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query %q returned %d: %s", rank, rec.Code, rec.Body.String())
	}
	var doc queryDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(doc.Rows))
	for i, row := range doc.Rows {
		prices[i] = row.Values["price"].(float64)
	}
	return prices
}

// TestEpochBumpDropsNormalization: the min/max bounds discovered for a
// source belong to its epoch. After a confirmed bump that moves the
// price maximum, a query ranked by -price must reach the new maximum
// instead of stopping at the old one.
func TestEpochBumpDropsNormalization(t *testing.T) {
	ctx := context.Background()
	db := newMutableDB("live", 300, 40)
	srv, err := New(Config{
		Sources: map[string]SourceConfig{
			"live": {DB: db, Cache: &qcache.Config{}},
		},
		ChangeSentinels: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topPrices(t, srv, "live", "-price", 3), []float64{299, 298, 297}; !slices.Equal(got, want) {
		t.Fatalf("before the shift: top prices %v, want %v", got, want)
	}
	if bumped, err := srv.ChangeProbe(ctx, "live"); err != nil || bumped {
		t.Fatalf("baseline probe: bumped=%v err=%v", bumped, err)
	}
	db.version.Store(6) // every price +5
	if bumped, err := srv.ChangeProbe(ctx, "live"); err != nil || !bumped {
		t.Fatalf("probe over shifted source: bumped=%v err=%v", bumped, err)
	}
	if got, want := topPrices(t, srv, "live", "-price", 3), []float64{304, 303, 302}; !slices.Equal(got, want) {
		t.Fatalf("after the shift: top prices %v, want %v", got, want)
	}
}

// TestEpochBumpDropsSessionTuples: a session's cached tuples belong to
// the source version they were seen in. After a confirmed bump, a new
// query in the same session must not seed its stream with pre-bump
// tuples.
func TestEpochBumpDropsSessionTuples(t *testing.T) {
	ctx := context.Background()
	db := newMutableDB("live", 300, 40)
	srv, err := New(Config{
		Sources: map[string]SourceConfig{
			"live": {DB: db, Cache: &qcache.Config{}},
		},
		ChangeSentinels: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	query := func(cookie *http.Cookie) ([]float64, *http.Cookie) {
		t.Helper()
		form := url.Values{"source": {"live"}, "rank": {"-price"}, "k": {"6"}}
		req := httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if cookie != nil {
			req.AddCookie(cookie)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query returned %d: %s", rec.Code, rec.Body.String())
		}
		var doc queryDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		prices := make([]float64, len(doc.Rows))
		for i, row := range doc.Rows {
			prices[i] = row.Values["price"].(float64)
		}
		for _, c := range rec.Result().Cookies() {
			if c.Name == SessionCookie {
				cookie = c
			}
		}
		return prices, cookie
	}
	got, cookie := query(nil)
	if want := []float64{299, 298, 297, 296, 295, 294}; !slices.Equal(got, want) {
		t.Fatalf("before the shift: top prices %v, want %v", got, want)
	}
	if cookie == nil {
		t.Fatal("no session cookie")
	}
	if bumped, err := srv.ChangeProbe(ctx, "live"); err != nil || bumped {
		t.Fatalf("baseline probe: bumped=%v err=%v", bumped, err)
	}
	db.version.Store(6) // every price +5
	if bumped, err := srv.ChangeProbe(ctx, "live"); err != nil || !bumped {
		t.Fatalf("probe over shifted source: bumped=%v err=%v", bumped, err)
	}
	if got, _ := query(cookie); !slices.Equal(got, []float64{304, 303, 302, 301, 300, 299}) {
		t.Fatalf("same session after the shift: top prices %v, want 304…299", got)
	}
}

// searchHook runs before on every Search of the wrapped database.
type searchHook struct {
	hidden.DB
	before func()
}

func (h *searchHook) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	h.before()
	return h.DB.Search(ctx, p)
}

// TestNormalizationDiscoveredAcrossBumpIsNotCached: bounds whose
// discovery straddled an epoch bump may mix both source versions, so
// they serve the query that asked for them and are discovered again by
// the next one.
func TestNormalizationDiscoveredAcrossBumpIsNotCached(t *testing.T) {
	var srv atomic.Pointer[Server]
	var bumped atomic.Bool
	db := &searchHook{DB: newMutableDB("live", 300, 40), before: func() {
		if s := srv.Load(); s != nil && bumped.CompareAndSwap(false, true) {
			s.Epochs().Bump("live")
		}
	}}
	s, err := New(Config{Sources: map[string]SourceConfig{"live": {DB: db, Cache: &qcache.Config{}}}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Store(s)
	topPrices(t, s, "live", "-price", 3)
	if !bumped.Load() {
		t.Fatal("discovery issued no search")
	}
	if _, ok := s.sources["live"].cachedNorm(); ok {
		t.Fatal("normalisation discovered across a bump was cached")
	}
	topPrices(t, s, "live", "-price", 3)
	if _, ok := s.sources["live"].cachedNorm(); !ok {
		t.Fatal("normalisation discovered within one epoch was not cached")
	}
}
