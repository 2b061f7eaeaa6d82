package dense

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/relation"
)

// Decoded-tuple residency. The kvstore remains the durable source of truth
// for entry tuples, but the hot path — TopIn on an entry some frontier leaf
// just matched — must not pay a store fetch plus a full blob decode per
// lookup. The residency layer keeps decoded tuple slices in memory, sorted
// by tuple ID, under a configurable byte budget with LRU eviction; evicted
// entries are simply re-loaded from the store on their next use.
//
// Each resident entry additionally caches per-attribute orderings: index
// permutations sorted by one attribute's value. MD-TA runs one 1D-Rerank
// substream per ranking attribute and each substream probes the same
// entries over and over; the ordering is computed once per (entry,
// attribute) and reused by every later lookup.

// DefaultResidentBytes is the residency budget used when the index is
// opened without WithResidentBytes.
const DefaultResidentBytes = 256 << 20

// residentOverhead approximates the fixed per-entry bookkeeping cost (map
// cell, list element, slice headers).
const residentOverhead = 128

// residency is the LRU manager of decoded entries. Its mutex guards only
// the map, list and byte accounting — never store I/O or sorting.
type residency struct {
	mu        sync.Mutex
	limit     int64 // byte budget, fixed at Open; negative disables residency
	bytes     int64
	elems     map[uint64]*list.Element // entry ID -> *resident element
	lru       *list.List               // front = most recently used
	loads     int64                    // store fetches on the read path
	evictions int64
}

// resident is one decoded entry. tuples is immutable and sorted by ID;
// orders is extended lazily under the resident's own mutex so ordering
// computation never blocks unrelated lookups.
type resident struct {
	id     uint64
	tuples []relation.Tuple
	size   int64 // bytes accounted against the budget (tuples + orders)

	mu     sync.Mutex
	orders map[int][]int32 // attr -> tuple indices ascending by (value, ID)
}

func newResidency(budget int64) *residency {
	if budget == 0 {
		budget = DefaultResidentBytes
	}
	return &residency{
		limit: budget,
		elems: make(map[uint64]*list.Element),
		lru:   list.New(),
	}
}

// tupleBytes estimates the resident footprint of a decoded tuple slice.
func tupleBytes(ts []relation.Tuple) int64 {
	size := int64(residentOverhead)
	for _, t := range ts {
		size += 16 + 8*int64(len(t.Values))
	}
	return size
}

// get returns the resident entry for id, refreshing its LRU position.
func (rs *residency) get(id uint64) (*resident, bool) {
	if rs.limit < 0 {
		return nil, false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	el, ok := rs.elems[id]
	if !ok {
		return nil, false
	}
	rs.lru.MoveToFront(el)
	return el.Value.(*resident), true
}

// admit makes a freshly decoded (already ID-sorted) tuple slice resident
// and returns its resident wrapper. When the budget excludes residency, or
// the entry alone exceeds it, the wrapper is returned untracked: the caller
// still gets the fast in-memory view for this one operation. A concurrent
// admit of the same id wins benignly: the existing resident is returned.
func (rs *residency) admit(id uint64, ts []relation.Tuple) *resident {
	r := &resident{id: id, tuples: ts, size: tupleBytes(ts), orders: make(map[int][]int32)}
	if r.size > rs.limit {
		return r
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if el, ok := rs.elems[id]; ok {
		rs.lru.MoveToFront(el)
		return el.Value.(*resident)
	}
	rs.elems[id] = rs.lru.PushFront(r)
	rs.bytes += r.size
	rs.evictOverLocked(r)
	return r
}

// charge accounts extra bytes (a freshly computed ordering) to a resident
// entry. Entries evicted between the computation and the charge are left
// alone — the ordering lives and dies with the unreferenced wrapper.
func (rs *residency) charge(r *resident, delta int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	el, ok := rs.elems[r.id]
	if !ok || el.Value.(*resident) != r {
		return
	}
	r.size += delta
	rs.bytes += delta
	rs.evictOverLocked(r)
}

// evictOverLocked drops cold entries until the budget holds. keep is never
// evicted: the caller is actively using it.
func (rs *residency) evictOverLocked(keep *resident) {
	for rs.bytes > rs.limit {
		cold := rs.lru.Back()
		if cold == nil {
			return
		}
		if cold.Value.(*resident) == keep {
			if cold = cold.Prev(); cold == nil {
				return
			}
		}
		rs.removeLocked(cold)
		rs.evictions++
	}
}

func (rs *residency) removeLocked(el *list.Element) {
	r := el.Value.(*resident)
	rs.lru.Remove(el)
	delete(rs.elems, r.id)
	rs.bytes -= r.size
}

// purge drops every resident entry and its byte accounting. Resident
// wrappers already handed to readers stay usable (their tuple slices are
// immutable); they are simply no longer tracked.
func (rs *residency) purge() {
	if rs.limit < 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for el := rs.lru.Back(); el != nil; el = rs.lru.Back() {
		rs.removeLocked(el)
	}
}

// purgeID drops one entry's resident copy, if any — the region-scoped
// wipe evicts per entry instead of purging the whole warm set. A wrapper
// already handed to a reader stays usable, exactly as with purge.
func (rs *residency) purgeID(id uint64) {
	if rs.limit < 0 {
		return
	}
	rs.mu.Lock()
	if el, ok := rs.elems[id]; ok {
		rs.removeLocked(el)
	}
	rs.mu.Unlock()
}

// stats snapshots residency counters into s.
func (rs *residency) stats(s *Stats) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	s.ResidentEntries = len(rs.elems)
	s.ResidentBytes = rs.bytes
	s.ResidentLoads = rs.loads
	s.ResidentEvictions = rs.evictions
}

func (rs *residency) noteLoad() {
	rs.mu.Lock()
	rs.loads++
	rs.mu.Unlock()
}

// orderFor returns the cached index permutation of r.tuples ascending by
// (Values[attr], ID), computing and charging it on first use.
func (r *resident) orderFor(rs *residency, attr int) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ord, ok := r.orders[attr]; ok {
		return ord
	}
	ord := make([]int32, len(r.tuples))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool {
		ta, tb := r.tuples[ord[a]], r.tuples[ord[b]]
		va, vb := ta.Values[attr], tb.Values[attr]
		if va != vb {
			return va < vb
		}
		return ta.ID < tb.ID
	})
	r.orders[attr] = ord
	rs.charge(r, 4*int64(len(ord))+32)
	return ord
}

// sortTuplesByID orders a decoded slice by tuple ID ascending, the stream
// tie-break order, so the score-free TopIn path needs no per-call sort.
func sortTuplesByID(ts []relation.Tuple) {
	sort.Slice(ts, func(a, b int) bool { return ts[a].ID < ts[b].ID })
}

// packTuples rewrites a tuple slice so every Values slice shares one
// contiguous backing array. The filter walk of TopIn touches one value of
// every tuple; with per-tuple allocations that is a cache miss per tuple,
// with the packed layout it is a sequential sweep. Capacities are clamped
// so appending to one tuple's Values can never bleed into the next.
func packTuples(ts []relation.Tuple) []relation.Tuple {
	total := 0
	for _, t := range ts {
		total += len(t.Values)
	}
	flat := make([]float64, 0, total)
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		off := len(flat)
		flat = append(flat, t.Values...)
		out[i] = relation.Tuple{ID: t.ID, Values: flat[off:len(flat):len(flat)]}
	}
	return out
}

// searchRange returns the half-open index range [lo, hi) of ord whose
// tuples' Values[attr] lie inside iv, honouring open endpoints. ord is
// sorted ascending by the attribute.
func searchRange(ts []relation.Tuple, ord []int32, attr int, iv relation.Interval) (int, int) {
	lo := sort.Search(len(ord), func(i int) bool {
		v := ts[ord[i]].Values[attr]
		return v > iv.Lo || (v == iv.Lo && !iv.LoOpen)
	})
	hi := sort.Search(len(ord), func(i int) bool {
		v := ts[ord[i]].Values[attr]
		return v > iv.Hi || (v == iv.Hi && iv.HiOpen)
	})
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
