// Package qcache is a shared, concurrency-safe answer cache for hidden
// web databases.
//
// QR2 is a third-party service: its entire operating cost is the number of
// top-k queries it issues to the web databases it rides on, and it serves
// many users at once. Concurrent sessions exploring overlapping regions of
// the same source repeatedly pay for identical searches. Cache wraps any
// hidden.DB as a decorator and memoizes Search results keyed by a
// canonical serialisation of the filter predicate, so semantically
// identical filters from different users resolve to one entry.
//
// Caches are views onto a Pool: one process-wide set of LRU shards under a
// single global byte budget. A stand-alone Cache (New) owns a private
// pool; a service hosting many sources registers each as a Pool namespace
// instead, so a hot source borrows cache capacity an idle source is not
// using, bounded by small per-namespace floors (see Pool).
//
// Identical searches that are in flight at the same time are coalesced
// singleflight-style — N concurrent users asking the same question cost
// exactly one web-database query, which is the cheapest query of all.
//
// Beyond exact matches, the cache performs overflow-aware reuse: an answer
// whose Overflow flag is false is the complete match set of its predicate,
// so any strictly narrower predicate is answered by filtering it
// client-side — byte-identical to what the database would return,
// including the negative (empty) result — via a containment directory over
// complete answers (see contain.go). The crawl layer feeds the same
// directory: a completed region crawl admits the region's full match set
// (AdmitCrawl), so predicates inside a crawled region are served with zero
// web-database queries even though no single query ever returned them.
//
// Entries can optionally be persisted through a kvstore.Store so a warm
// cache survives restarts; the store carries the source's epoch record —
// the boot fingerprint (name, system-k, schema) plus the live epoch
// sequence number — and is wiped when either half no longer matches,
// mirroring the boot-time cache verification of the dense-region index.
//
// Beyond boot, the cache participates in the live epoch lifecycle
// (internal/epoch): with Config.Epochs set, the namespace registers its
// source epoch in the registry and every bump — a change-detection
// prober's digest mismatch, or a higher epoch adopted from a cluster
// peer — wipes the namespace while it keeps serving. A full bump drops
// everything: resident entries, the containment directory, the
// crawl-admitted region sets and the persisted records. A region-scoped
// bump (Epoch.Scope) wipes selectively: only state whose predicate
// intersects the bumped rect goes, and the rest stays warm. Both are
// atomic with respect to concurrent lookups and in-flight leaders —
// admissions are fenced on the epoch sequence they were issued under,
// with an older answer admitted only when every bump since is provably
// disjoint from its predicate.
package qcache

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/relation"
)

// DefaultMaxBytes is the byte budget used when Config.MaxBytes is zero.
const DefaultMaxBytes = 64 << 20

// defaultShards is the shard count used when Config.Shards is zero.
const defaultShards = 16

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total in-memory budget across all shards
	// (default DefaultMaxBytes). Negative admits no entries, leaving
	// only in-flight coalescing active. Ignored by Pool.Namespace, where
	// the pool's global budget applies instead.
	MaxBytes int64
	// TTL expires entries this long after they were filled. Zero means
	// entries never expire. A snapshot database never changes, but a
	// live web database does; the TTL bounds staleness.
	TTL time.Duration
	// Shards is the number of independent LRU shards (default 16,
	// rounded up to a power of two). Ignored by Pool.Namespace.
	Shards int
	// Store persists entries so a warm cache survives restarts. Nil
	// keeps the cache memory-only. The store is wiped when its recorded
	// source fingerprint no longer matches the database.
	Store kvstore.Store
	// DisableContainment turns off overflow-aware reuse: by default a
	// resident answer with Overflow=false (the complete match set of its
	// predicate) also serves every strictly narrower predicate by
	// client-side filtering, without touching the inner database.
	DisableContainment bool
	// Epochs joins the cache to a live source-epoch registry
	// (internal/epoch): the namespace registers its boot epoch under the
	// source name and wipes itself on every bump — a local change
	// detection or a higher epoch adopted from a cluster peer. Nil keeps
	// the boot-time fingerprint as the only invalidation signal.
	Epochs *epoch.Registry
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts searches answered from a resident entry with the exact
	// same canonical predicate.
	Hits int64 `json:"hits"`
	// ContainmentHits counts searches answered by filtering a resident
	// complete (non-overflowing) answer for a broader predicate —
	// overflow-aware reuse. Disjoint from Hits.
	ContainmentHits int64 `json:"containment_hits"`
	// CrawlHits counts searches answered from a crawl-admitted region
	// match set (AdmitCrawl). Disjoint from Hits and ContainmentHits.
	CrawlHits int64 `json:"crawl_hits"`
	// Misses counts searches that had to query the inner database.
	Misses int64 `json:"misses"`
	// Coalesced counts searches that joined an identical in-flight
	// search instead of issuing their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64 `json:"evictions"`
	// Expired counts entries dropped because their TTL ran out.
	Expired int64 `json:"expired"`
	// Entries and Bytes describe current residency.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// CompleteEntries counts resident answers available for containment
	// reuse (complete match sets returned by single queries).
	CompleteEntries int `json:"complete_entries"`
	// CrawlEntries counts resident region match sets admitted by the
	// crawl refill.
	CrawlEntries int `json:"crawl_entries"`
	// Warmed counts entries loaded from the persistent store at boot.
	Warmed int `json:"warmed"`
	// EpochSeq is the source epoch the namespace currently serves under;
	// EpochWipes counts runtime epoch bumps adopted as full namespace
	// wipes.
	EpochSeq   uint64 `json:"epoch_seq"`
	EpochWipes int64  `json:"epoch_wipes"`
	// PartialWipes counts region-scoped bumps adopted as selective wipes;
	// WipeDropped and WipeRetained count the entries those wipes dropped
	// (predicate intersecting the bumped region) and kept.
	PartialWipes int64 `json:"partial_wipes"`
	WipeDropped  int64 `json:"wipe_dropped_entries"`
	WipeRetained int64 `json:"wipe_retained_entries"`
}

// HitRate returns the share of searches answered without the inner
// database: (hits + containment hits + crawl hits) / all searches. Zero
// before any lookup.
func (s Stats) HitRate() float64 {
	served := s.Hits + s.ContainmentHits + s.CrawlHits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Cache decorates a hidden.DB with a shared answer cache. It implements
// hidden.DB and is safe for concurrent use by any number of sessions.
// A Cache is a view onto one Pool namespace: New builds a private
// single-namespace pool, Pool.Namespace joins an existing one.
type Cache struct {
	ns *namespace
}

// New builds a stand-alone cache over inner, backed by a private pool
// sized from cfg. When cfg.Store is non-nil the store is verified against
// the source fingerprint (wiping stale contents) and any surviving
// entries are loaded, newest first, up to the byte budget.
func New(inner hidden.DB, cfg Config) (*Cache, error) {
	if inner == nil {
		return nil, errors.New("qcache: nil inner database")
	}
	pool := NewPool(PoolConfig{MaxBytes: cfg.MaxBytes, Shards: cfg.Shards})
	return pool.Namespace(inner.Name(), inner, cfg)
}

// setClock overrides time for TTL tests.
func (c *Cache) setClock(now func() time.Time) { c.ns.pool.setClock(now) }

// Name implements hidden.DB.
func (c *Cache) Name() string { return c.ns.inner.Name() }

// Schema implements hidden.DB.
func (c *Cache) Schema() *relation.Schema { return c.ns.inner.Schema() }

// SystemK implements hidden.DB.
func (c *Cache) SystemK() int { return c.ns.inner.SystemK() }

// Search implements hidden.DB. A resident entry answers immediately; a
// resident complete answer for a broader predicate answers by client-side
// filtering (overflow-aware reuse); an identical in-flight search is
// joined; otherwise the caller becomes the leader, queries the inner
// database once and publishes the result.
func (c *Cache) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	return c.ns.search(ctx, p)
}

// Peek answers p from local residency only — an exact resident entry, a
// covering complete answer, or a crawl-admitted region set — and reports
// found=false otherwise. It never queries the inner database and never
// joins or starts an in-flight search. The cluster layer serves peer
// lookups and pre-forward local checks with it. Served
// traffic counts toward the ordinary hit counters; a peek miss is not a
// cache miss, because no inner query follows here.
func (c *Cache) Peek(p relation.Predicate) (hidden.Result, bool) {
	return c.ns.peek(p)
}

// PeekShared is Peek without the defensive tuple-slice copy: the
// returned slice is owned by the cache and must not be mutated or
// retained past the call's immediate use. It exists for the peer serve
// paths, which only serialize the result onto the wire — at wire speed
// the copy Peek makes per forwarded lookup is measurable.
func (c *Cache) PeekShared(p relation.Predicate) (hidden.Result, bool) {
	return c.ns.peekShared(p)
}

// Admit publishes an externally produced answer for p as if the inner
// database had just returned it: the entry is admitted against the
// budget, registered for containment reuse when complete, and persisted
// when a store is configured. The cluster layer uses it to install
// answers pushed by peer replicas. The result is copied;
// the caller keeps ownership of its slice.
func (c *Cache) Admit(p relation.Predicate, res hidden.Result) {
	c.ns.admitAt(p, res, c.ns.epochSeq.Load())
}

// AdmitAt is Admit fenced on the source epoch the answer was produced
// under: the admission is checked against epochSeq under the shard lock,
// so an answer from an older epoch is dropped even when the bump lands
// between the caller's own staleness check and the insert. The cluster
// put handler uses it with the epoch seq carried on the wire.
func (c *Cache) AdmitAt(p relation.Predicate, res hidden.Result, epochSeq uint64) {
	c.ns.admitAt(p, res, epochSeq)
}

// AdmitCrawl publishes the complete match set of pred, assembled by a
// region crawl rather than returned by any single query, for
// containment-style reuse. A later predicate inside the region whose
// match set fits under system-k is answered client-side with the exact
// set and overflow flag the database would produce; tuples arrive in
// tuple-ID order rather than system-rank order, because no sequence of
// top-k queries can observe the global rank order of an overflowing
// region (the containment directory documents the cap). Narrower
// predicates matching more than system-k tuples are never served this
// way — emulating the database's truncation would require the unknowable
// rank order — and fall through to a real query. No-op when containment
// reuse is disabled. The crawl layer (internal/crawl.All) calls this for
// every complete crawl whose executor fronts a Cache.
//
// AdmitCrawl takes ownership of tuples: the slice is sorted in place and
// retained; the caller must not modify it afterwards.
func (c *Cache) AdmitCrawl(pred relation.Predicate, tuples []relation.Tuple) {
	c.ns.admitCrawl(pred, tuples, c.ns.epochSeq.Load())
}

// AdmitCrawlAt is AdmitCrawl fenced on the source epoch the crawl began
// under (crawl.EpochAdmitter): the admission is re-checked under the
// shard lock, so a crawl that straddled an epoch bump whose region
// touches the crawled predicate — its set may mix pre- and post-change
// answers — is dropped even when the bump lands between the crawl's last
// query and the admission. A crawl that straddled only region-scoped
// bumps disjoint from its predicate keeps its set: the change cannot
// have altered any tuple the crawl collected.
func (c *Cache) AdmitCrawlAt(pred relation.Predicate, tuples []relation.Tuple, epochSeq uint64) {
	c.ns.admitCrawl(pred, tuples, epochSeq)
}

// EpochSeq returns the source epoch the cache currently serves under.
// Every resident answer was produced at this epoch; the crawl layer
// captures it before a crawl and skips admission when it moved, and the
// cluster layer tags peer admissions with it so owners can reject stale
// pushes.
func (c *Cache) EpochSeq() uint64 { return c.ns.epochSeq.Load() }

// Discard drops the exact resident entry for p (and its persisted
// record), leaving every other entry alone. The cluster layer releases a
// re-homed fallback copy with it once the recovered owner holds the
// answer.
func (c *Cache) Discard(p relation.Predicate) { c.ns.discard(KeyOf(p)) }

// Stats returns a snapshot of the cache counters and residency.
func (c *Cache) Stats() Stats { return c.ns.stats() }

// HotPredicates returns up to max of the cache's most-served resident
// predicates, hottest first. The change prober samples it to derive
// sentinel placement from live traffic (epoch.ProberConfig.Hot), so
// probing concentrates where reuse — and therefore staleness risk —
// actually is.
func (c *Cache) HotPredicates(max int) []relation.Predicate { return c.ns.hotPredicates(max) }

// Len returns the number of resident entries.
func (c *Cache) Len() int { return int(c.ns.entries.Load()) }

// Purge drops every resident entry of this cache's namespace (and, when
// persistent, every stored one). Counters are preserved.
func (c *Cache) Purge() error {
	c.ns.purgeResident()
	if c.ns.store == nil {
		return nil
	}
	return c.ns.wipeStore()
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// entrySize estimates the resident footprint of one entry: the key, the
// tuple payload and a fixed per-entry overhead for the map and list cells.
func entrySize(key string, res hidden.Result) int64 {
	const overhead = 96
	size := int64(len(key)) + overhead
	for _, t := range res.Tuples {
		size += 16 + 8*int64(len(t.Values))
	}
	return size
}

// copyResult returns a result whose tuple slice the caller may append to
// or reorder without corrupting the cached copy. Tuples themselves are
// shared, matching the immutability convention of hidden.Local.
func copyResult(res hidden.Result) hidden.Result {
	return hidden.Result{
		Tuples:   append([]relation.Tuple(nil), res.Tuples...),
		Overflow: res.Overflow,
		Degraded: res.Degraded,
	}
}

// sortTuplesByID orders a tuple slice by ID ascending — the documented
// order of crawl-admitted region sets.
func sortTuplesByID(ts []relation.Tuple) {
	sort.Slice(ts, func(a, b int) bool { return ts[a].ID < ts[b].ID })
}

var _ hidden.DB = (*Cache)(nil)
