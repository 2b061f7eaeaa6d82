package qcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/relation"
)

// Pool is one process-wide answer cache shared by any number of sources.
//
// Every source registers as a namespace; its canonical predicate keys are
// prefixed with the namespace id and hashed into one shared set of LRU
// shards, so all namespaces compete for a single global byte budget
// instead of each sitting on a private slice. A hot source therefore
// borrows capacity a quiet source is not using — the cross-source analogue
// of a broker-level cache — while a small per-namespace floor keeps one
// runaway source from evicting the rest to zero.
type Pool struct {
	limit     int64        // global byte budget, fixed at NewPool; negative admits nothing
	bytes     atomic.Int64 // resident bytes across all namespaces
	shards    []*shard
	mask      uint64
	floorFrac float64
	now       func() time.Time
	evictions atomic.Int64

	nsCount atomic.Int64
	mu      sync.Mutex // guards nss and nextID
	nss     []*namespace
	nextID  uint32 // monotonic: prefixes are never reused, even after drop
}

// DefaultFloorFrac is the fraction of the budget reserved as per-namespace
// floors when PoolConfig.FloorFrac is zero: half the budget, split evenly,
// is protected; the other half floats to whichever namespace is hot.
const DefaultFloorFrac = 0.5

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// MaxBytes is the global byte budget across all namespaces (default
	// DefaultMaxBytes). Negative admits no entries, leaving exact-match
	// coalescing as the only cache effect.
	MaxBytes int64
	// Shards is the number of independent LRU shards shared by every
	// namespace (default 16, rounded up to a power of two).
	Shards int
	// FloorFrac is the fraction of the budget set aside as per-namespace
	// eviction floors, split evenly across namespaces (default
	// DefaultFloorFrac; negative disables floors). A namespace's coldest
	// entries are safe from *other* namespaces while it holds less than
	// its floor.
	FloorFrac float64
}

// NewPool builds an empty pool; sources join it with Namespace.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	for n&(n-1) != 0 {
		n++
	}
	ff := cfg.FloorFrac
	switch {
	case ff == 0:
		ff = DefaultFloorFrac
	case ff < 0:
		ff = 0
	case ff > 1:
		ff = 1
	}
	p := &Pool{
		limit:     cfg.MaxBytes,
		shards:    make([]*shard, n),
		mask:      uint64(n - 1),
		floorFrac: ff,
		now:       time.Now,
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			elems:   make(map[string]*list.Element),
			lru:     list.New(),
			flights: make(map[string]*flight),
		}
	}
	return p
}

// Namespace installs inner as a named member of the pool and returns its
// cache view. cfg.MaxBytes and cfg.Shards are pool-wide settings and are
// ignored here; TTL, Store and DisableContainment apply to this namespace
// only. Registering the same name twice is an error.
func (p *Pool) Namespace(name string, inner hidden.DB, cfg Config) (*Cache, error) {
	if inner == nil {
		return nil, fmt.Errorf("qcache: nil inner database")
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("qcache: negative TTL %v", cfg.TTL)
	}
	p.mu.Lock()
	for _, other := range p.nss {
		if other.name == name {
			p.mu.Unlock()
			return nil, fmt.Errorf("qcache: namespace %q already registered", name)
		}
	}
	fp, err := fingerprint(inner)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	ns := &namespace{
		pool:    p,
		name:    name,
		prefix:  nsPrefix(p.nextID),
		inner:   inner,
		ttl:     cfg.TTL,
		store:   cfg.Store,
		systemK: inner.SystemK(),
		fp:      fp,
	}
	ns.epochSeq.Store(1)
	p.nextID++
	if !cfg.DisableContainment {
		ns.complete = newCompleteDir(inner.Schema())
	}
	p.nss = append(p.nss, ns)
	p.mu.Unlock()
	p.nsCount.Add(1)
	if ns.store != nil {
		if err := ns.openStore(); err != nil {
			p.drop(ns)
			return nil, err
		}
	}
	if cfg.Epochs != nil {
		// Join the live epoch lifecycle: future bumps — local detections
		// and cluster adoptions alike — wipe the namespace, and a bump
		// the registry already knows about (a peer moved on while this
		// replica was down) invalidates the freshly warmed store now.
		ns.reg = cfg.Epochs
		cfg.Epochs.Subscribe(name, ns.adoptEpoch)
		ns.adoptEpoch(cfg.Epochs.Register(name, fp, ns.epochSeq.Load()))
	}
	return &Cache{ns: ns}, nil
}

// drop removes a namespace that failed to finish registration, releasing
// any entries its store warm-up already admitted.
func (p *Pool) drop(ns *namespace) {
	ns.purgeResident()
	p.mu.Lock()
	for i, other := range p.nss {
		if other == ns {
			p.nss = append(p.nss[:i], p.nss[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	p.nsCount.Add(-1)
}

// nsPrefix encodes a namespace id as the fixed-width key prefix.
func nsPrefix(id uint32) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	return string(b[:])
}

// setClock overrides time for TTL tests.
func (p *Pool) setClock(now func() time.Time) { p.now = now }

// limits derives the per-shard byte budget and the per-namespace
// eviction floor (the bytes below which a namespace's entries are
// protected from other namespaces' pressure) from the pool's budget.
func (p *Pool) limits() (shardLimit, nsFloor int64) {
	lim := p.limit
	if lim < 0 {
		return -1, 0
	}
	shardLimit = lim / int64(len(p.shards))
	if n := p.nsCount.Load(); n > 0 && p.floorFrac > 0 {
		nsFloor = int64(p.floorFrac * float64(lim) / float64(n))
	}
	return shardLimit, nsFloor
}

// shardFor picks the shard by an FNV-1a hash of the (prefixed) key.
func (p *Pool) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return p.shards[h&p.mask]
}

// PoolStats is a point-in-time snapshot of the whole pool.
type PoolStats struct {
	// Limit is the pool's global byte budget.
	Limit int64 `json:"limit"`
	// Bytes and Entries describe global residency across all namespaces.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// Evictions counts entries dropped pool-wide for the byte budget.
	Evictions int64 `json:"evictions"`
	// Namespaces maps source names to their per-namespace counters.
	Namespaces map[string]Stats `json:"namespaces"`
}

// Stats snapshots the pool and every namespace.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	nss := append([]*namespace(nil), p.nss...)
	p.mu.Unlock()
	st := PoolStats{
		Limit:      p.limit,
		Bytes:      p.bytes.Load(),
		Evictions:  p.evictions.Load(),
		Namespaces: make(map[string]Stats, len(nss)),
	}
	for _, ns := range nss {
		s := ns.stats()
		st.Entries += s.Entries
		st.Namespaces[ns.name] = s
	}
	return st
}

// shard is one independently locked slice of the shared key space.
type shard struct {
	mu      sync.Mutex
	elems   map[string]*list.Element // prefixed key -> *entry element
	lru     *list.List               // front = most recently used
	bytes   int64
	over    int64 // bytes of resident oversized entries (> shard share)
	flights map[string]*flight
}

// entry is one cached search result. key is namespace-prefixed (the shard
// map key); srcKey strips the prefix back off for the namespace's store
// and containment directory. oversized marks an entry admitted past the
// per-shard share and budgeted against the global pool limit instead —
// typically a crawl-admitted region set bigger than budget/shards.
type entry struct {
	ns        *namespace
	key       string
	res       hidden.Result
	size      int64
	storedAt  time.Time
	oversized bool
	// hits counts lookups this entry served (exact hits plus containment
	// wins), under the shard lock. It is the traffic signal hotPredicates
	// samples for sentinel placement; a replaced entry starts cold again.
	hits int64
}

func (e *entry) srcKey() string { return e.key[len(e.ns.prefix):] }

// victim names an evicted entry so the caller can mirror the eviction
// onto the owning namespace's persistent store outside the shard lock.
type victim struct {
	ns  *namespace
	key string // source key (unprefixed)
}

// flight is one in-progress inner search that identical concurrent
// searches wait on.
type flight struct {
	done chan struct{}
	res  hidden.Result
	err  error
}

// namespace is one source's membership in the pool: its key prefix, its
// containment directory, its persistent store and its counters. All
// resident bytes live in the pool's shared shards.
type namespace struct {
	pool     *Pool
	name     string
	prefix   string
	inner    hidden.DB
	ttl      time.Duration
	store    kvstore.Store
	complete *completeDir // nil when containment reuse is disabled
	systemK  int

	// fp is the boot fingerprint of the source (name, system-k, schema);
	// epochSeq is the live source epoch the namespace currently serves
	// under. Admissions capture the seq before querying the inner
	// database and re-check it under the shard lock, so an answer fetched
	// under an older epoch never enters after adoptEpoch's wipe — unless
	// every intervening bump was region-scoped and provably disjoint from
	// the answer's predicate (admissibleAt, fed by bumpHist). storeMu
	// orders persist writes against the epoch wipe of the store; adoptMu
	// serializes epoch transitions so the history and the seq advance
	// together.
	fp       []byte
	reg      *epoch.Registry // nil without a live epoch registry
	epochSeq atomic.Uint64
	storeMu  sync.Mutex
	adoptMu  sync.Mutex
	bumpHist atomic.Pointer[[]scopedBump]

	bytes      atomic.Int64
	entries    atomic.Int64
	hits       atomic.Int64
	contained  atomic.Int64
	crawlHits  atomic.Int64
	misses     atomic.Int64
	coalesced  atomic.Int64
	evictions  atomic.Int64
	expired    atomic.Int64
	epochWipes atomic.Int64
	warmed     int

	// Region-scoped invalidation counters: partialWipes counts scoped
	// bumps adopted as selective wipes (epochWipes counts full wipes
	// only), wipeDropped/wipeRetained count the entries each partial wipe
	// dropped and kept.
	partialWipes atomic.Int64
	wipeDropped  atomic.Int64
	wipeRetained atomic.Int64
}

// scopedBump records one adopted epoch transition and the region it was
// confined to; a nil scope is a full wipe (or a transition whose scope is
// unknown). The bounded history lets admissibleAt prove an answer fetched
// a few epochs ago untouched by everything that happened since.
type scopedBump struct {
	seq   uint64
	scope *region.Rect
}

// bumpHistCap bounds the recorded transition history. Anything older is
// treated as unknown, which admissibleAt resolves as "refuse" — the safe
// direction.
const bumpHistCap = 32

// pushBump appends one transition to the namespace's bump history. Called
// under adoptMu, before the seq advance makes the transition visible, so a
// reader that observes the new seq always finds its history entry.
func (ns *namespace) pushBump(seq uint64, scope *region.Rect) {
	var hist []scopedBump
	if old := ns.bumpHist.Load(); old != nil {
		hist = *old
	}
	if excess := len(hist) + 1 - bumpHistCap; excess > 0 {
		hist = hist[excess:]
	}
	next := make([]scopedBump, 0, len(hist)+1)
	next = append(next, hist...)
	next = append(next, scopedBump{seq: seq, scope: scope})
	ns.bumpHist.Store(&next)
}

// admissibleAt reports whether an answer for predicate p produced under
// epoch seq may still be admitted. Equality with the live seq is the
// classic fence. An older answer is additionally admissible when every
// intervening bump was region-scoped and its region is disjoint from p: a
// change confined elsewhere cannot have altered this answer, so a crawl or
// slow leader that straddled such a bump keeps its work. Any gap in the
// history, a full bump, or an intersecting scope refuses the admission.
func (ns *namespace) admissibleAt(seq uint64, p relation.Predicate) bool {
	cur := ns.epochSeq.Load()
	if seq == cur {
		return true
	}
	if seq > cur {
		return false
	}
	histp := ns.bumpHist.Load()
	if histp == nil {
		return false
	}
	hist := *histp
	for s := seq + 1; s <= cur; s++ {
		var sc *region.Rect
		found := false
		for i := len(hist) - 1; i >= 0; i-- {
			if hist[i].seq == s {
				sc, found = hist[i].scope, true
				break
			}
		}
		if !found || sc == nil || predIntersectsRect(p, *sc) {
			return false
		}
	}
	return true
}

// predIntersectsRect reports whether predicate p selects any point inside
// rect. A dimension rect constrains but p does not is unbounded in p, so
// it never separates them; a categorical condition intersects when any of
// its codes falls inside rect's interval on that attribute. This is the
// cache-side mirror of region.Rect.Intersects, evaluated against the
// predicate a cached answer was keyed by.
func predIntersectsRect(p relation.Predicate, rect region.Rect) bool {
	if rect.Empty() || p.Unsatisfiable() {
		return false
	}
	for i, a := range rect.Attrs {
		iv := rect.Ivs[i]
		// A dimension p leaves unconstrained never separates.
		for _, c := range p.Conditions() {
			if c.Attr != a {
				continue
			}
			if c.Cats != nil {
				hit := false
				for _, ci := range c.Cats {
					if iv.Contains(float64(ci)) {
						hit = true
						break
					}
				}
				if !hit {
					return false
				}
			} else if c.Iv.Intersect(iv).Empty() {
				return false
			}
			break
		}
	}
	return true
}

// keyIntersects decodes the predicate behind a source key against schema
// and reports whether it intersects rect. A key that fails to decode is
// conservatively treated as intersecting: over-dropping costs one
// re-query, under-dropping serves stale state.
func keyIntersects(schema *relation.Schema, key string, rect region.Rect) bool {
	p, ok := predOfKey(schema, key)
	if !ok {
		return true
	}
	return predIntersectsRect(p, rect)
}

// search implements the cache lookup protocol over the pool's shards: an
// exact resident entry answers immediately; a resident complete answer
// covering the predicate answers by client-side filtering; an identical
// in-flight search is joined; otherwise the caller becomes the leader,
// queries the inner database once and publishes the result.
func (ns *namespace) search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	tr := obs.FromContext(ctx)
	tmKey := tr.Start(obs.StageCanonicalize)
	key := KeyOf(p)
	tmKey.End(obs.OutcomeOK)
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	// The containment scan must not run under the shard mutex — it would
	// serialize every other lookup on the shard behind a directory walk.
	// It is attempted once, lock-free, after the first exact miss; the
	// loop then re-checks the shard, which may have gained the entry or an
	// in-flight leader in the meantime.
	triedContainment := ns.complete == nil
	for {
		// The pool-lookup span covers the exact-match probe; a coalesced
		// outcome additionally covers the wait on the leader's flight.
		tmLk := tr.Start(obs.StagePoolLookup)
		sh.mu.Lock()
		if res, ok := ns.lookupLocked(sh, pkey); ok {
			sh.mu.Unlock()
			tmLk.End(obs.OutcomeHit)
			ns.hits.Add(1)
			return res, nil
		}
		if !triedContainment {
			sh.mu.Unlock()
			tmLk.End(obs.OutcomeMiss)
			triedContainment = true
			tmC := tr.Start(obs.StageContainment)
			if res, winner, viaCrawl, ok := ns.complete.lookup(p, ns.ttl, ns.pool.now(), ns.systemK); ok {
				// Refresh the serving entry's LRU position: the complete
				// answer absorbing this traffic must not age out as cold.
				ns.touch(winner)
				if viaCrawl {
					tmC.EndAs(obs.StageCrawlSet, obs.OutcomeHit)
					ns.crawlHits.Add(1)
				} else {
					tmC.End(obs.OutcomeHit)
					ns.contained.Add(1)
				}
				return res, nil
			}
			tmC.End(obs.OutcomeMiss)
			continue
		}
		if fl, ok := sh.flights[pkey]; ok {
			sh.mu.Unlock()
			ns.coalesced.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				tmLk.End(obs.OutcomeError)
				return hidden.Result{}, ctx.Err()
			}
			if fl.err == nil {
				tmLk.End(obs.OutcomeCoalesced)
				return copyResult(fl.res), nil
			}
			tmLk.End(obs.OutcomeError)
			// The leader failed. When it died with its own context
			// while ours is still live, retry as a fresh leader
			// rather than surfacing someone else's cancellation.
			if isContextErr(fl.err) && ctx.Err() == nil {
				continue
			}
			return hidden.Result{}, fl.err
		}
		fl := &flight{done: make(chan struct{})}
		sh.flights[pkey] = fl
		sh.mu.Unlock()
		tmLk.End(obs.OutcomeMiss)
		ns.misses.Add(1)
		seq := ns.epochSeq.Load()

		res, err := ns.inner.Search(ctx, p)
		fl.res, fl.err = res, err

		var (
			admitted bool
			victims  []victim
		)
		tmF := tr.Start(obs.StageEpochFence)
		sh.mu.Lock()
		delete(sh.flights, pkey)
		// The epoch gate: re-check the seq captured before the inner query
		// under the shard lock. adoptEpoch advances the seq before it
		// purges the shards, so either this insert sees the new seq and
		// must prove itself (admissibleAt: every bump since was scoped and
		// disjoint from p), or it inserted first and the purge removes it
		// when it intersects — a pre-change answer from a bumped region
		// can never survive the wipe. A degraded result (fabricated by the
		// resilience layer while the source was down) is served to the
		// waiting flight but never admitted: caching it would keep
		// answering with the fabrication after recovery.
		if err == nil && !res.Degraded && ns.admissibleAt(seq, p) {
			admitted, victims = ns.insertLocked(sh, pkey, res, ns.pool.now())
		}
		sh.mu.Unlock()
		switch {
		case err != nil:
			tmF.End(obs.OutcomeError)
		case admitted:
			tmF.End(obs.OutcomeOK)
		default:
			tmF.End(obs.OutcomeMiss)
		}
		close(fl.done)
		if err != nil {
			return hidden.Result{}, err
		}
		// Store I/O happens outside the shard lock. The persistent store
		// mirrors residency exactly: evicted keys are deleted from their
		// owners' stores, an admitted answer is written, and a replaced or
		// refused admission deletes any stale record left under this key —
		// otherwise a restart would warm back an answer memory already
		// replaced or dropped.
		if admitted {
			victims = append(victims, ns.pool.enforceGlobal(ns, pkey)...)
		}
		deleteVictims(victims)
		if ns.store != nil {
			if admitted {
				ns.persist(key, p, res, seq)
			} else {
				_ = ns.store.Delete(storeKey(key))
			}
		}
		return copyResult(res), nil
	}
}

// deleteVictims mirrors evictions onto the owning namespaces' stores.
func deleteVictims(victims []victim) {
	for _, v := range victims {
		if v.ns.store != nil {
			_ = v.ns.store.Delete(storeKey(v.key))
		}
	}
}

// admitCrawl publishes the complete match set of a crawled region as a
// containment-only entry (see Cache.AdmitCrawl). It takes ownership of
// tuples: the slice is sorted in place and retained as the cached set.
func (ns *namespace) admitCrawl(pred relation.Predicate, tuples []relation.Tuple, seq uint64) {
	if ns.complete == nil {
		return
	}
	sortTuplesByID(tuples)
	res := hidden.Result{Tuples: tuples}
	key := crawlKeyPrefix + KeyOf(pred)
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	sh.mu.Lock()
	var (
		admitted bool
		victims  []victim
	)
	// The epoch gate (see search): a crawl that straddled a bump keeps
	// its set when every bump since it began was scoped and disjoint from
	// the crawled region — only straddling crawl sets are dropped.
	if ns.admissibleAt(seq, pred) {
		admitted, victims = ns.insertLocked(sh, pkey, res, ns.pool.now())
	}
	sh.mu.Unlock()
	if admitted {
		victims = append(victims, ns.pool.enforceGlobal(ns, pkey)...)
	}
	deleteVictims(victims)
	if ns.store != nil {
		if admitted {
			ns.persist(key, pred, res, seq)
		} else {
			_ = ns.store.Delete(storeKey(key))
		}
	}
}

// peek is the resident-only half of the lookup protocol: an exact
// resident entry, else a covering complete answer (containment or crawl).
// It never joins or starts a flight and never touches the inner database
// — the peer answer-cache protocol serves forwarded lookups with it, so
// a lookup forwarded by another replica can only ever cost memory reads.
func (ns *namespace) peek(p relation.Predicate) (hidden.Result, bool) {
	return ns.peekFn(p, (*namespace).lookupLocked)
}

// peekShared is peek without the defensive tuple-slice copy on the
// resident path: the returned slice is owned by the cache and must not
// be mutated or retained. Entries are immutable once admitted
// (admission copies in, replacement swaps the whole result), so sharing
// is safe for a reader that only serializes — the peer serve paths,
// which would otherwise pay one slice copy per forwarded lookup just to
// throw it away.
func (ns *namespace) peekShared(p relation.Predicate) (hidden.Result, bool) {
	return ns.peekFn(p, (*namespace).lookupSharedLocked)
}

func (ns *namespace) peekFn(p relation.Predicate, lookup func(*namespace, *shard, string) (hidden.Result, bool)) (hidden.Result, bool) {
	key := KeyOf(p)
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	sh.mu.Lock()
	res, ok := lookup(ns, sh, pkey)
	sh.mu.Unlock()
	if ok {
		ns.hits.Add(1)
		return res, true
	}
	if ns.complete != nil {
		if res, winner, viaCrawl, ok := ns.complete.lookup(p, ns.ttl, ns.pool.now(), ns.systemK); ok {
			ns.touch(winner)
			if viaCrawl {
				ns.crawlHits.Add(1)
			} else {
				ns.contained.Add(1)
			}
			return res, true
		}
	}
	return hidden.Result{}, false
}

// admitAt publishes an externally produced answer for p — the peer
// protocol's put — exactly as if the inner database had just
// returned it: admission against the budget, containment registration,
// persistence. seq is the epoch the answer was produced under; a
// namespace that has moved past it drops the admission (the shard-lock
// re-check below). The result is copied; the caller keeps its slice.
func (ns *namespace) admitAt(p relation.Predicate, res hidden.Result, seq uint64) {
	key := KeyOf(p)
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	sh.mu.Lock()
	var (
		admitted bool
		victims  []victim
	)
	if !res.Degraded && ns.admissibleAt(seq, p) { // see the epoch gate in search
		admitted, victims = ns.insertLocked(sh, pkey, copyResult(res), ns.pool.now())
	}
	sh.mu.Unlock()
	if admitted {
		victims = append(victims, ns.pool.enforceGlobal(ns, pkey)...)
	}
	deleteVictims(victims)
	if ns.store != nil {
		if admitted {
			ns.persist(key, p, res, seq)
		} else {
			_ = ns.store.Delete(storeKey(key))
		}
	}
}

// enforceGlobal evicts cold entries across every shard until the pool's
// global usage respects its limit, and returns the victims for store
// mirroring. Shards individually respecting their share keep the global
// sum bounded on their own; this pass exists for oversized entries, whose
// bytes are exempt from the shard share and budgeted globally instead.
// Must be called without any shard lock held. keep (a prefixed key) is
// never evicted — it is the entry whose admission created the pressure.
func (p *Pool) enforceGlobal(pressure *namespace, keep string) []victim {
	lim := p.limit
	if lim < 0 || p.bytes.Load() <= lim {
		return nil
	}
	_, floor := p.limits()
	var victims []victim
	for _, sh := range p.shards {
		if p.bytes.Load() <= lim {
			break
		}
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil && p.bytes.Load() > lim; {
			prev := el.Prev()
			ce := el.Value.(*entry)
			switch {
			case ce.key == keep:
			case ce.ns != pressure && ce.ns.bytes.Load()-ce.size < floor:
				// floor-protected from foreign pressure
			default:
				victims = append(victims, victim{ns: ce.ns, key: ce.srcKey()})
				removeLocked(sh, el)
				ce.ns.evictions.Add(1)
				p.evictions.Add(1)
			}
			el = prev
		}
		sh.mu.Unlock()
	}
	return victims
}

// touch refreshes the LRU position of a resident entry by source key, if
// it is still resident. Used after containment hits, which serve traffic
// from an entry no exact lookup would otherwise refresh.
func (ns *namespace) touch(key string) {
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	sh.mu.Lock()
	if el, ok := sh.elems[pkey]; ok {
		sh.lru.MoveToFront(el)
		el.Value.(*entry).hits++
	}
	sh.mu.Unlock()
}

// lookupLocked returns the resident result for a prefixed key, refreshing
// its LRU position. Expired entries are dropped and reported as absent;
// the caller's refill either overwrites or deletes the stale persisted
// record for the same key, so no store I/O is needed under the lock.
// Crawl-admitted entries live under 'R'-marked keys no canonical
// predicate key collides with, so an exact lookup never sees one.
func (ns *namespace) lookupLocked(sh *shard, pkey string) (hidden.Result, bool) {
	res, ok := ns.lookupSharedLocked(sh, pkey)
	if ok {
		res = copyResult(res)
	}
	return res, ok
}

// lookupSharedLocked is lookupLocked returning the entry's own tuple
// slice — see peekShared for the ownership contract.
func (ns *namespace) lookupSharedLocked(sh *shard, pkey string) (hidden.Result, bool) {
	el, ok := sh.elems[pkey]
	if !ok {
		return hidden.Result{}, false
	}
	e := el.Value.(*entry)
	if ns.ttl > 0 && ns.pool.now().Sub(e.storedAt) > ns.ttl {
		removeLocked(sh, el)
		ns.expired.Add(1)
		return hidden.Result{}, false
	}
	sh.lru.MoveToFront(el)
	e.hits++
	return e.res, true
}

// insertLocked adds (or replaces) an entry and evicts from the cold end
// until the shard respects its share of the global budget. An entry
// larger than a whole shard's share is admitted as oversized — budgeted
// against the global pool limit rather than refused, so a crawl-admitted
// region set bigger than budget/shards still enters; the caller must run
// Pool.enforceGlobal afterwards (outside the shard lock) to restore the
// global budget. Only an entry exceeding the whole pool limit is refused.
// Victims are chosen oldest-first, skipping entries whose owning
// namespace would fall below its floor under pressure from a *different*
// namespace — that is the borrowing contract: idle capacity is lent, the
// floor is not.
func (ns *namespace) insertLocked(sh *shard, pkey string, res hidden.Result, at time.Time) (admitted bool, victims []victim) {
	if el, ok := sh.elems[pkey]; ok {
		removeLocked(sh, el)
	}
	e := &entry{ns: ns, key: pkey, res: res, size: entrySize(pkey, res), storedAt: at}
	limit, floor := ns.pool.limits()
	if e.size > limit {
		if limit < 0 || e.size > ns.pool.limit {
			return false, nil
		}
		e.oversized = true
		sh.over += e.size
	}
	sh.elems[pkey] = sh.lru.PushFront(e)
	sh.bytes += e.size
	ns.bytes.Add(e.size)
	ns.entries.Add(1)
	ns.pool.bytes.Add(e.size)
	if ns.complete != nil {
		ns.complete.register(e.srcKey(), res, at)
	}
	// One cold-to-hot pass: evicting only shrinks namespace byte counts,
	// so an entry skipped as floor-protected stays protected and is never
	// worth revisiting. If the walk ends with only the new entry and
	// floor-protected foreigners left, the overshoot is tolerated rather
	// than the floor contract broken. Oversized bytes are exempt from the
	// shard share (they ride on the global budget via enforceGlobal), so
	// an oversized region set does not wipe the shard's normal entries.
	for el := sh.lru.Back(); el != nil && sh.bytes-sh.over > limit; {
		prev := el.Prev()
		ce := el.Value.(*entry)
		switch {
		case ce == e: // never evict the entry being admitted
		case ce.oversized:
			// Exempt from the shard share: evicting it cannot help this
			// loop's condition, so reclaiming it is enforceGlobal's job.
		case ce.ns != ns && ce.ns.bytes.Load()-ce.size < floor:
			// floor-protected from foreign pressure
		default:
			victims = append(victims, victim{ns: ce.ns, key: ce.srcKey()})
			removeLocked(sh, el)
			ce.ns.evictions.Add(1)
			ns.pool.evictions.Add(1)
		}
		el = prev
	}
	return true, victims
}

// removeLocked drops an element from its shard and unwinds all accounting.
func removeLocked(sh *shard, el *list.Element) {
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.elems, e.key)
	sh.bytes -= e.size
	if e.oversized {
		sh.over -= e.size
	}
	e.ns.bytes.Add(-e.size)
	e.ns.entries.Add(-1)
	e.ns.pool.bytes.Add(-e.size)
	if e.ns.complete != nil {
		e.ns.complete.unregister(e.srcKey())
	}
}

// stats snapshots the namespace counters.
func (ns *namespace) stats() Stats {
	st := Stats{
		Hits:            ns.hits.Load(),
		ContainmentHits: ns.contained.Load(),
		CrawlHits:       ns.crawlHits.Load(),
		Misses:          ns.misses.Load(),
		Coalesced:       ns.coalesced.Load(),
		Evictions:       ns.evictions.Load(),
		Expired:         ns.expired.Load(),
		Entries:         int(ns.entries.Load()),
		Bytes:           ns.bytes.Load(),
		Warmed:          ns.warmed,
		EpochSeq:        ns.epochSeq.Load(),
		EpochWipes:      ns.epochWipes.Load(),
		PartialWipes:    ns.partialWipes.Load(),
		WipeDropped:     ns.wipeDropped.Load(),
		WipeRetained:    ns.wipeRetained.Load(),
	}
	if ns.complete != nil {
		st.CompleteEntries, st.CrawlEntries = ns.complete.lens()
	}
	return st
}

// adoptEpoch moves the namespace to a newer source epoch and destroys
// the answers the transition invalidated. A full bump (Epoch.Scope nil)
// destroys everything produced under older epochs: the in-memory entries,
// the containment directory, and the persisted q/ and R/ records. A
// region-scoped bump adopted in order (exactly one seq ahead) wipes
// selectively instead: only entries and crawl sets whose predicate (via
// its decoded key) intersects the bumped rect are dropped from the
// containment directory, the shards and the store — the rest of the
// namespace stays warm. A scoped bump that skips seqs escalates to a full
// wipe, because the skipped transitions' regions are unknown. adoptEpoch
// is the registry subscriber for this namespace, so both local
// change-detection bumps and cluster adoptions land here. Lower or equal
// epochs are ignored — wipes never run twice for one bump, and a stale
// remote epoch cannot wipe fresher state.
//
// Ordering under concurrent lookups: the transition is recorded in the
// bump history and the seq advanced (under adoptMu) before any purge,
// fencing admissions — every admission path re-checks admissibility under
// its shard lock, so either the check fails (or proves the answer's
// region disjoint from everything since) or it inserted first and the
// purge removes it. The containment directory is purged before the shards
// so a narrower predicate cannot be served from a complete answer whose
// shard entry is already being unwound. The store wipe runs last, under
// storeMu, which persist writes also take — a slow leader cannot
// re-persist an invalidated answer after the wipe. When adoptEpoch
// returns, no answer invalidated by the transition is reachable through
// any path.
func (ns *namespace) adoptEpoch(e epoch.Epoch) {
	ns.adoptMu.Lock()
	cur := ns.epochSeq.Load()
	if e.Seq <= cur {
		ns.adoptMu.Unlock()
		return
	}
	scope := e.Scope
	if scope != nil && e.Seq != cur+1 {
		// The scope describes only the final transition; adopting across
		// skipped seqs means unseen bumps whose regions are unknown.
		scope = nil
	}
	ns.pushBump(e.Seq, scope)
	ns.epochSeq.Store(e.Seq)
	ns.adoptMu.Unlock()
	if scope != nil {
		dropped, retained := ns.purgeResidentRegion(*scope)
		ns.partialWipes.Add(1)
		ns.wipeDropped.Add(dropped)
		ns.wipeRetained.Add(retained)
		if ns.store != nil {
			ns.storeMu.Lock()
			_ = ns.wipeRecordsRegion(*scope)
			_ = ns.writeMeta()
			ns.storeMu.Unlock()
		}
		return
	}
	ns.purgeResident()
	ns.epochWipes.Add(1)
	if ns.store != nil {
		ns.storeMu.Lock()
		_ = ns.wipeRecords()
		_ = ns.writeMeta()
		ns.storeMu.Unlock()
	}
}

// purgeResidentRegion drops the namespace's resident entries whose
// predicate intersects rect, from the containment directory first (same
// ordering rationale as purgeResident) and then the shards, and reports
// how many entries were dropped and how many survived. Keys that fail to
// decode are conservatively dropped.
func (ns *namespace) purgeResidentRegion(rect region.Rect) (dropped, retained int64) {
	if ns.complete != nil {
		ns.complete.purgeRegion(rect)
	}
	for _, sh := range ns.pool.shards {
		sh.mu.Lock()
		var drop []*list.Element
		for _, el := range sh.elems {
			e := el.Value.(*entry)
			if e.ns != ns {
				continue
			}
			if keyIntersects(ns.inner.Schema(), e.srcKey(), rect) {
				drop = append(drop, el)
			} else {
				retained++
			}
		}
		for _, el := range drop {
			removeLocked(sh, el)
		}
		dropped += int64(len(drop))
		sh.mu.Unlock()
	}
	return dropped, retained
}

// hotPredicates returns up to max of the namespace's most-served resident
// predicates, hottest first (ties broken by key for determinism). Crawl
// sets count under their region predicate. This is the live traffic
// signal the change prober samples to place sentinels where reuse — and
// therefore staleness risk — is concentrated.
func (ns *namespace) hotPredicates(max int) []relation.Predicate {
	if max <= 0 {
		return nil
	}
	type hot struct {
		key  string
		p    relation.Predicate
		hits int64
	}
	var all []hot
	for _, sh := range ns.pool.shards {
		sh.mu.Lock()
		for _, el := range sh.elems {
			e := el.Value.(*entry)
			if e.ns != ns || e.hits == 0 {
				continue
			}
			k := strings.TrimPrefix(e.srcKey(), crawlKeyPrefix)
			if p, ok := predOfKey(ns.inner.Schema(), k); ok {
				all = append(all, hot{key: k, p: p, hits: e.hits})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].hits != all[j].hits {
			return all[i].hits > all[j].hits
		}
		return all[i].key < all[j].key
	})
	out := make([]relation.Predicate, 0, max)
	seen := make(map[string]bool, max)
	for _, h := range all {
		if seen[h.key] {
			continue // a crawl set and an exact answer share a predicate
		}
		seen[h.key] = true
		out = append(out, h.p)
		if len(out) == max {
			break
		}
	}
	return out
}

// purgeResident drops this namespace's resident entries from every shard
// and its containment directory. The directory goes first: a containment
// lookup runs lock-free against it, and must not win on an entry whose
// shard residency (and byte accounting) is already being unwound.
func (ns *namespace) purgeResident() {
	if ns.complete != nil {
		ns.complete.purge()
	}
	ns.purgeShards()
}

// purgeShards drops this namespace's resident entries from every shard.
func (ns *namespace) purgeShards() {
	for _, sh := range ns.pool.shards {
		sh.mu.Lock()
		var drop []*list.Element
		for _, el := range sh.elems {
			if el.Value.(*entry).ns == ns {
				drop = append(drop, el)
			}
		}
		for _, el := range drop {
			removeLocked(sh, el)
		}
		sh.mu.Unlock()
	}
}

// discard drops the exact resident entry for a source key and its
// persisted record, leaving every other entry alone. The cluster layer
// releases re-homed fallback copies with it.
func (ns *namespace) discard(key string) {
	pkey := ns.prefix + key
	sh := ns.pool.shardFor(pkey)
	sh.mu.Lock()
	if el, ok := sh.elems[pkey]; ok {
		removeLocked(sh, el)
	}
	sh.mu.Unlock()
	if ns.store != nil {
		ns.storeMu.Lock()
		_ = ns.store.Delete(storeKey(key))
		ns.storeMu.Unlock()
	}
}

// crawlKeyPrefix marks the cache key of a crawl-admitted region set. It
// cannot collide with canonical predicate keys, whose first byte is 'c',
// 'n' or absent, so the region's own (overflowing) top-k answer and its
// complete crawled set coexist under distinct keys.
const crawlKeyPrefix = "R"

// isCrawlKey reports whether a source key names a crawl-admitted set.
func isCrawlKey(key string) bool { return strings.HasPrefix(key, crawlKeyPrefix) }
