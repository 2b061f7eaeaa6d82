// Package dense implements QR2's on-the-fly dense-region index.
//
// (1D/MD)-RERANK resolve the weakness of the binary algorithms in dense
// regions: when a region keeps overflowing although it has become very
// narrow, the region is crawled once, completely, and remembered. Future
// get-next operations — by the same user or any other, for any filter —
// whose region of interest lies inside an indexed region are answered from
// the index without touching the web database. The index is shared by all
// sessions and persisted (the paper uses MySQL; here a kvstore log), and is
// verified at boot before the service starts.
//
// An entry is authoritative: it stores every tuple of the web database
// inside its rectangle (entries are only written for complete crawls), so
// membership plus a client-side filter answers any query whose region the
// entry covers.
//
// The read path is built for memory-speed concurrent service. Covering
// lookups go through a spatial directory (a packed R-tree per attribute
// signature — see rtree.go) under a read lock, so any number of sessions
// probe simultaneously; hit/miss counters are atomic. Entry tuples are kept
// decoded in memory under a configurable byte budget with LRU eviction
// (resident.go); the kvstore remains the durable source of truth and is
// touched only on insert, at boot, and to re-load evicted entries. TopIn on
// a resident entry is a filter walk over pre-sorted tuples — no store I/O,
// no decode, no per-call sort.
package dense

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Entry describes one indexed dense region.
type Entry struct {
	// ID is the entry's stable identifier in the store.
	ID uint64
	// Rect is the covered region, in raw attribute coordinates.
	Rect region.Rect
	// Count is the number of tuples materialised for the region.
	Count int
}

// Stats reports index effectiveness for the amortisation experiments and
// the operational metrics endpoint.
type Stats struct {
	Entries      int
	TuplesStored int
	Hits         int64
	Misses       int64
	// ResidentEntries and ResidentBytes describe the decoded-tuple cache.
	ResidentEntries int
	ResidentBytes   int64
	// ResidentLoads counts store fetches forced by residency misses on the
	// read path; ResidentEvictions counts entries pushed back to the store
	// to respect the byte budget.
	ResidentLoads     int64
	ResidentEvictions int64
	// Wipes counts whole-index invalidations (full source epoch bumps);
	// RegionWipes counts region-scoped invalidations (WipeRegion), which
	// evict only the entries intersecting the bumped rectangle.
	Wipes       int64
	RegionWipes int64
}

// Index is a shared, persistent directory of crawled dense regions.
// It is safe for concurrent use; lookups take a read lock and scale with
// the number of readers.
type Index struct {
	mu      sync.RWMutex // guards entries, dir, nextID, tuples
	store   kvstore.Store
	schema  *relation.Schema
	entries map[uint64]Entry
	dir     *directory
	nextID  uint64
	tuples  int

	hits        atomic.Int64
	misses      atomic.Int64
	wipes       atomic.Int64
	regionWipes atomic.Int64

	epochSeq atomic.Uint64 // persisted under epochKey; see SetEpoch

	res *residency
}

// epochKey stores the source epoch seq the index's entries were crawled
// under (8 bytes LE). Absent in stores written before epochs existed,
// which reads as seq 1.
var epochKey = []byte("m/epoch")

// Option configures an Index at Open time.
type Option func(*Index)

// WithResidentBytes sets the decoded-tuple residency budget in bytes.
// Zero (the default) selects DefaultResidentBytes; a negative budget
// disables residency so every lookup re-reads the store (useful for
// measurements and very memory-tight deployments).
func WithResidentBytes(n int64) Option {
	return func(ix *Index) { ix.res = newResidency(n) }
}

// Open loads the index directory from the store, verifying that every
// entry decodes cleanly — the paper's boot-time cache verification. A fresh
// store yields an empty index. The tuples decoded during verification are
// kept as the initial resident set (up to the residency budget) instead of
// being thrown away and decoded again on first use.
func Open(schema *relation.Schema, store kvstore.Store, opts ...Option) (*Index, error) {
	ix := &Index{
		store:   store,
		schema:  schema,
		entries: make(map[uint64]Entry),
		dir:     newDirectory(),
		res:     newResidency(0),
	}
	for _, o := range opts {
		o(ix)
	}
	ix.epochSeq.Store(1)
	if v, ok, err := store.Get(epochKey); err == nil && ok && len(v) >= 8 {
		ix.epochSeq.Store(binary.LittleEndian.Uint64(v))
	}
	var corrupt, blobs [][]byte
	err := store.Range(func(key, value []byte) bool {
		if len(key) >= 2 && key[0] == 't' && key[1] == '/' {
			blobs = append(blobs, append([]byte(nil), key...))
		}
		if len(key) < 2 || key[0] != 'e' {
			return true
		}
		e, derr := decodeEntry(value, schema)
		if derr != nil {
			// A corrupt directory record is dropped rather than trusted;
			// the region will simply be re-crawled on demand.
			corrupt = append(corrupt, append([]byte(nil), key...))
			return true
		}
		ix.entries[e.ID] = e
		ix.tuples += e.Count
		if e.ID >= ix.nextID {
			ix.nextID = e.ID + 1
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, key := range corrupt {
		_ = store.Delete(key)
	}
	// Verify tuple blobs exist, decode and hold the recorded count for
	// every directory entry; drop entries whose data is missing or
	// unreadable (the sweep below removes their blobs), and admit the
	// decoded tuples of the survivors as the warm resident set.
	live := make([]Entry, 0, len(ix.entries))
	for id, e := range ix.entries {
		ts, terr := ix.Tuples(id)
		if terr != nil || len(ts) != e.Count {
			delete(ix.entries, id)
			ix.tuples -= e.Count
			_ = ix.store.Delete(entryKey(id))
			continue
		}
		sortTuplesByID(ts)
		ix.res.admit(id, packTuples(ts))
		live = append(live, e)
	}
	// A tuple blob no live entry points at — its record was dropped
	// above, or a crash fell between the two writes of an Insert — would
	// never be read again.
	for _, key := range blobs {
		if len(key) == 10 {
			if _, ok := ix.entries[binary.BigEndian.Uint64(key[2:])]; ok {
				continue
			}
		}
		_ = store.Delete(key)
	}
	ix.dir.bulk(live)
	return ix, nil
}

// Find returns an entry covering the query rectangle, if any. Among
// covering entries the one with the fewest tuples wins (cheapest to scan).
// Concurrent Finds proceed in parallel under a read lock; hit/miss
// counters feed the amortisation experiment.
func (ix *Index) Find(r region.Rect) (Entry, bool) {
	ix.mu.RLock()
	best, found := ix.dir.findBestCovering(r)
	if !found && r.Empty() {
		// Degenerate query: an empty rectangle is covered by every entry,
		// which the projection-based directory does not model.
		for _, e := range ix.entries {
			if !found || e.Count < best.Count {
				best, found = e, true
			}
		}
	}
	ix.mu.RUnlock()
	if found {
		ix.hits.Add(1)
	} else {
		ix.misses.Add(1)
	}
	return best, found
}

// Insert persists a completely crawled region and its tuples, returning the
// new entry. Regions already covered by an existing entry are deduplicated:
// the existing entry is returned unchanged. The freshly crawled tuples are
// admitted to residency immediately — the session that paid for the crawl
// is about to read them back.
func (ix *Index) Insert(r region.Rect, tuples []relation.Tuple) (Entry, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.dir.findBestCovering(r); ok {
		return e, nil
	}
	e := Entry{ID: ix.nextID, Rect: r.Clone(), Count: len(tuples)}
	if err := ix.store.Put(tuplesKey(e.ID), wire.AppendTuples(nil, tuples, ix.schema.Len())); err != nil {
		return Entry{}, fmt.Errorf("dense: store tuples: %w", err)
	}
	if err := ix.store.Put(entryKey(e.ID), encodeEntry(e)); err != nil {
		return Entry{}, fmt.Errorf("dense: store entry: %w", err)
	}
	if err := ix.store.Sync(); err != nil {
		return Entry{}, fmt.Errorf("dense: sync: %w", err)
	}
	ix.nextID++
	ix.entries[e.ID] = e
	ix.tuples += e.Count
	ix.dir.add(e)
	sorted := append([]relation.Tuple(nil), tuples...)
	sortTuplesByID(sorted)
	ix.res.admit(e.ID, packTuples(sorted))
	return e, nil
}

// Tuples loads the materialised tuples of an entry from the store, in the
// order they were crawled. This is the durable view; the read path uses the
// resident (ID-sorted) view instead.
func (ix *Index) Tuples(id uint64) ([]relation.Tuple, error) {
	blob, ok, err := ix.store.Get(tuplesKey(id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("dense: entry %d has no tuple data", id)
	}
	r := wire.NewReader(blob)
	ts := r.Tuples(ix.schema)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("dense: entry %d tuples: %w", id, err)
	}
	return ts, nil
}

// resident returns the in-memory view of an entry, loading and admitting
// it from the store on a residency miss.
func (ix *Index) resident(id uint64) (*resident, error) {
	if r, ok := ix.res.get(id); ok {
		return r, nil
	}
	ts, err := ix.Tuples(id)
	if err != nil {
		return nil, err
	}
	ix.res.noteLoad()
	sortTuplesByID(ts)
	return ix.res.admit(id, packTuples(ts)), nil
}

// TopIn returns the tuples of entry id that lie inside rect, match pred and
// are not excluded, sorted by (score, ID) ascending, up to limit (limit <= 0
// means all). This is the oracle call: it replaces any number of web
// database queries inside an indexed region. A nil score ranks by ID alone.
//
// The lookup is adaptive, the way a database picks an access path: when the
// query rectangle selects a narrow slice of the entry along its first
// constrained attribute, a binary search over the cached attribute ordering
// bounds the candidates and only the slice is filtered; otherwise the
// pre-sorted resident tuples are swept sequentially (which for a nil score
// also needs no output sort).
func (ix *Index) TopIn(id uint64, rect region.Rect, pred relation.Predicate,
	score func(relation.Tuple) float64, excluded func(int64) bool, limit int) ([]relation.Tuple, error) {
	r, err := ix.resident(id)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	if cands, ok := r.narrowCandidates(ix.res, rect); ok {
		// Mark the surviving candidate positions in a bitset and sweep it:
		// the resident slice is ID-ascending, so position order IS ID
		// order, recovered in O(n/64 + k) without any sort.
		words := make([]uint64, (len(r.tuples)+63)/64)
		kept := 0
		for _, ci := range cands {
			t := r.tuples[ci]
			if !rect.ContainsTuple(t) || !pred.Match(t) {
				continue
			}
			if excluded != nil && excluded(t.ID) {
				continue
			}
			words[ci>>6] |= 1 << (uint(ci) & 63)
			kept++
		}
		out = make([]relation.Tuple, 0, kept)
		for wi, w := range words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				out = append(out, r.tuples[wi<<6|b])
			}
		}
	} else {
		out = filterTuples(r.tuples, rect, pred, excluded)
	}
	if score != nil {
		sort.Slice(out, func(a, b int) bool {
			sa, sb := score(out[a]), score(out[b])
			if sa != sb {
				return sa < sb
			}
			return out[a].ID < out[b].ID
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// ScanIn streams the tuples of entry id that lie inside rect, match pred
// and are not excluded to yield, in tuple-ID order, stopping early when
// yield returns false. It is the enumeration-style access path: TopIn
// materialises the full output slice, which for a query covering most of
// an entry is an O(entry) allocation and copy per call; ScanIn hands the
// caller each tuple of the shared resident view in place. The view is
// immutable — the callback must not retain or modify a tuple's Values
// slice beyond the call (copy the struct itself freely; it shares the
// backing array exactly as TopIn's output does).
func (ix *Index) ScanIn(id uint64, rect region.Rect, pred relation.Predicate,
	excluded func(int64) bool, yield func(relation.Tuple) bool) error {
	r, err := ix.resident(id)
	if err != nil {
		return err
	}
	keep := func(t relation.Tuple) bool {
		return rect.ContainsTuple(t) && pred.Match(t) && (excluded == nil || !excluded(t.ID))
	}
	if cands, ok := r.narrowCandidates(ix.res, rect); ok {
		// Same bitset trick as TopIn's narrow path: position order over the
		// ID-sorted resident slice IS ID order, recovered without a sort.
		words := make([]uint64, (len(r.tuples)+63)/64)
		for _, ci := range cands {
			if keep(r.tuples[ci]) {
				words[ci>>6] |= 1 << (uint(ci) & 63)
			}
		}
		for wi, w := range words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				if !yield(r.tuples[wi<<6|b]) {
					return nil
				}
			}
		}
		return nil
	}
	for _, t := range r.tuples {
		if keep(t) && !yield(t) {
			return nil
		}
	}
	return nil
}

// narrowSelectivity is the index-scan threshold: the ordered range must
// select at most 1/narrowSelectivity of the entry for the binary-search
// path to beat the sequential sweep (random candidate access plus an
// output sort versus a linear pass).
const narrowSelectivity = 4

// narrowCandidates binary-searches the cached ordering of the query's
// first constrained attribute for the tuples inside its interval. ok is
// false when the range is too wide to beat a sequential sweep, or the
// rectangle constrains nothing.
func (r *resident) narrowCandidates(rs *residency, rect region.Rect) ([]int32, bool) {
	if len(rect.Attrs) == 0 || len(r.tuples) < 64 {
		return nil, false
	}
	attr, iv := rect.Attrs[0], rect.Ivs[0]
	ord := r.orderFor(rs, attr)
	lo, hi := searchRange(r.tuples, ord, attr, iv)
	if (hi-lo)*narrowSelectivity > len(ord) {
		return nil, false
	}
	return ord[lo:hi], true
}

// TopInByAttr is TopIn ranked by a single attribute: tuples inside rect
// matching pred, ordered by Values[attr] ascending (descending=false) or
// descending, up to limit. Ties iterate in ID order for ascending walks and
// reverse-ID order for descending ones. The per-attribute ordering is
// computed once per resident entry and reused by every 1D-Rerank substream
// that probes it.
func (ix *Index) TopInByAttr(id uint64, rect region.Rect, pred relation.Predicate,
	attr int, descending bool, excluded func(int64) bool, limit int) ([]relation.Tuple, error) {
	r, err := ix.resident(id)
	if err != nil {
		return nil, err
	}
	if attr < 0 || ix.schema != nil && attr >= ix.schema.Len() {
		return nil, fmt.Errorf("dense: ordering attribute %d out of range", attr)
	}
	ord := r.orderFor(ix.res, attr)
	// When the query rectangle constrains the ranking attribute — the
	// common case, a frontier leaf is an interval of exactly that attribute
	// — a binary search bounds the walk to the covered slice.
	for i, a := range rect.Attrs {
		if a == attr {
			lo, hi := searchRange(r.tuples, ord, attr, rect.Ivs[i])
			ord = ord[lo:hi]
			break
		}
	}
	out := make([]relation.Tuple, 0, 16)
	emit := func(t relation.Tuple) bool {
		if !rect.ContainsTuple(t) || !pred.Match(t) {
			return true
		}
		if excluded != nil && excluded(t.ID) {
			return true
		}
		out = append(out, t)
		return limit <= 0 || len(out) < limit
	}
	if descending {
		for i := len(ord) - 1; i >= 0; i-- {
			if !emit(r.tuples[ord[i]]) {
				break
			}
		}
	} else {
		for _, oi := range ord {
			if !emit(r.tuples[oi]) {
				break
			}
		}
	}
	return out, nil
}

// filterTuples walks an ID-sorted resident slice and keeps the tuples
// inside rect that match pred and are not excluded.
func filterTuples(ts []relation.Tuple, rect region.Rect, pred relation.Predicate, excluded func(int64) bool) []relation.Tuple {
	var out []relation.Tuple
	for _, t := range ts {
		if !rect.ContainsTuple(t) || !pred.Match(t) {
			continue
		}
		if excluded != nil && excluded(t.ID) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// EpochSeq reports the source epoch the index's persisted entries were
// crawled under — 1 for stores that predate epochs. The service compares
// it at boot against the source's recovered epoch and re-wipes an index
// that fell behind (a wipe whose store cleanup failed, or a change
// detected while this process was down).
func (ix *Index) EpochSeq() uint64 { return ix.epochSeq.Load() }

// SetEpoch durably records the source epoch the (freshly wiped) index
// now tracks. Callers record it only after a fully successful Wipe, so a
// failed store cleanup leaves the persisted epoch behind and the next
// boot re-wipes.
func (ix *Index) SetEpoch(seq uint64) error {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], seq)
	if err := ix.store.Put(epochKey, v[:]); err != nil {
		return fmt.Errorf("dense: record epoch: %w", err)
	}
	if err := ix.store.Sync(); err != nil {
		return fmt.Errorf("dense: record epoch: %w", err)
	}
	ix.epochSeq.Store(seq)
	return nil
}

// Wipe drops every entry — the directory, the resident warm set and the
// persisted records. The source-epoch lifecycle (internal/epoch) calls
// it when the web database behind the index visibly changed: entries are
// authoritative complete crawls of a source version that no longer
// exists, so the whole index is invalid, not just the warm set. Entry
// IDs keep growing across a wipe so a stale ID held by a concurrent
// reader can never alias a post-wipe region; such a reader gets a
// residency miss and a "no tuple data" error, which the engine treats
// as an ordinary re-crawl.
func (ix *Index) Wipe() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Memory first, unconditionally: the in-memory directory and warm
	// set are what serve lookups, and they must stop serving pre-change
	// regions even if the store cleanup below fails. On a store failure
	// the caller must not SetEpoch, so the persisted epoch stays behind
	// and the next boot detects the leftover records and re-wipes.
	ix.entries = make(map[uint64]Entry)
	ix.dir = newDirectory()
	ix.tuples = 0
	ix.res.purge()
	ix.wipes.Add(1)
	var keys [][]byte
	err := ix.store.Range(func(key, _ []byte) bool {
		if len(key) >= 2 && (key[0] == 'e' || key[0] == 't') && key[1] == '/' {
			keys = append(keys, append([]byte(nil), key...))
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("dense: wipe: %w", err)
	}
	for _, k := range keys {
		if err := ix.store.Delete(k); err != nil {
			return fmt.Errorf("dense: wipe: %w", err)
		}
	}
	if err := ix.store.Sync(); err != nil {
		return fmt.Errorf("dense: wipe sync: %w", err)
	}
	return nil
}

// WipeRegion drops only the entries whose region intersects rect — the
// region-scoped sibling of Wipe, invoked when a source change was
// localised to one sentinel's region. Surviving entries remain
// authoritative: they are complete crawls of regions the change provably
// did not touch, so their answers are still byte-exact. Memory goes
// first, unconditionally — the directory is rebuilt from the survivors
// and evicted IDs leave residency — so pre-change regions stop serving
// even if the store cleanup below fails; on error the caller must not
// SetEpoch, exactly as with Wipe, and the next boot re-wipes.
func (ix *Index) WipeRegion(rect region.Rect) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var evicted []uint64
	live := make([]Entry, 0, len(ix.entries))
	for id, e := range ix.entries {
		if e.Rect.Intersects(rect) {
			evicted = append(evicted, id)
		} else {
			live = append(live, e)
		}
	}
	for _, id := range evicted {
		ix.tuples -= ix.entries[id].Count
		delete(ix.entries, id)
		ix.res.purgeID(id)
	}
	ix.dir = newDirectory()
	ix.dir.bulk(live)
	ix.regionWipes.Add(1)
	for _, id := range evicted {
		if err := ix.store.Delete(entryKey(id)); err != nil {
			return fmt.Errorf("dense: wipe region: %w", err)
		}
		if err := ix.store.Delete(tuplesKey(id)); err != nil {
			return fmt.Errorf("dense: wipe region: %w", err)
		}
	}
	if err := ix.store.Sync(); err != nil {
		return fmt.Errorf("dense: wipe region sync: %w", err)
	}
	return nil
}

// Len returns the number of entries.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// Stats returns a snapshot of index effectiveness counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	s := Stats{Entries: len(ix.entries), TuplesStored: ix.tuples}
	ix.mu.RUnlock()
	s.Hits = ix.hits.Load()
	s.Misses = ix.misses.Load()
	s.Wipes = ix.wipes.Load()
	s.RegionWipes = ix.regionWipes.Load()
	ix.res.stats(&s)
	return s
}

func entryKey(id uint64) []byte {
	k := make([]byte, 10)
	k[0], k[1] = 'e', '/'
	binary.BigEndian.PutUint64(k[2:], id)
	return k
}

func tuplesKey(id uint64) []byte {
	k := make([]byte, 10)
	k[0], k[1] = 't', '/'
	binary.BigEndian.PutUint64(k[2:], id)
	return k
}

// codecVersion opens every directory record. A record of another
// version is dropped at boot with its tuple blob, so an index written by
// an older binary starts cold.
const codecVersion = 2

// encodeEntry serialises an entry's directory record. Persisted layout
// (the rect and tuple layouts are internal/wire's):
//
//	e/<id>   u8 codecVersion | uvarint id | uvarint count | rect
//	t/<id>   tuples, in crawl order
func encodeEntry(e Entry) []byte {
	buf := []byte{codecVersion}
	buf = binary.AppendUvarint(buf, e.ID)
	buf = binary.AppendUvarint(buf, uint64(e.Count))
	return wire.AppendRect(buf, e.Rect)
}

// decodeEntry parses a directory record against the index's schema. It
// accepts exactly the bytes encodeEntry writes.
func decodeEntry(buf []byte, schema *relation.Schema) (Entry, error) {
	r := wire.NewReader(buf)
	if v := r.U8(); v != codecVersion {
		r.Fail("dense: entry codec version %d, want %d", v, codecVersion)
	}
	e := Entry{ID: r.Uvarint(), Count: int(r.Uvarint())}
	e.Rect = r.Rect(schema)
	return e, r.Finish()
}
