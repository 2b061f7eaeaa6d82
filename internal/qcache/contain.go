package qcache

import (
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/hidden"
	"repro/internal/region"
	"repro/internal/relation"
)

// Overflow-aware answer reuse. A cached result with Overflow=false is the
// complete match set of its predicate: the web database returned every
// tuple satisfying it, in system-rank order. Such an answer can serve not
// just the identical predicate but any strictly narrower one — filtering
// the complete set client-side yields exactly the tuples, in exactly the
// order, the database would return, with Overflow necessarily false again.
// This includes the negative result: a complete empty answer proves every
// narrower predicate empty too.
//
// completeDir is the containment directory over complete answers — the
// answer-granularity analogue of the dense-region index, including its
// pruning idea: entries are grouped by the attribute signature their
// predicate constrains. Canonical keys never contain full-interval
// conditions, so a predicate p can only cover q when every attribute p
// constrains is constrained by q too; a lookup therefore skips every group
// whose signature is not a subset of the query's attribute set. It is
// keyed by the canonical predicate key and consulted after an exact-key
// miss; entries enter when a complete answer is admitted to a shard and
// leave when that shard evicts or replaces it.

// completeEntry is one complete answer available for containment reuse.
type completeEntry struct {
	key      string
	pred     relation.Predicate
	res      hidden.Result
	storedAt time.Time
	// idOrder marks a crawl-admitted region set: the tuples are the
	// complete match set but in tuple-ID order, because the global system
	// rank of an overflowing region is unobservable through the top-k
	// interface. Such an entry serves a narrower predicate only when the
	// filtered set fits under system-k (no truncation to emulate), and
	// rank-faithful entries are always preferred over it.
	idOrder bool
}

// completeGroup holds the complete answers sharing one attribute
// signature.
type completeGroup struct {
	attrs   []int // ascending attribute positions the predicates constrain
	entries map[string]completeEntry
}

// completeDir indexes complete answers for containment lookups. Its lock
// is ordered after the shard locks: shards register and unregister while
// holding their own mutex; lookups take only the directory lock.
type completeDir struct {
	schema *relation.Schema // the keys decode against it
	mu     sync.RWMutex
	groups map[string]*completeGroup // signature -> group
	sigs   map[string]string         // entry key -> signature
	crawl  int                       // how many registered entries are crawl sets
}

func newCompleteDir(schema *relation.Schema) *completeDir {
	return &completeDir{
		schema: schema,
		groups: make(map[string]*completeGroup),
		sigs:   make(map[string]string),
	}
}

// condAttrs returns the ascending attribute positions p constrains.
func condAttrs(p relation.Predicate) []int {
	conds := p.Conditions()
	out := make([]int, len(conds))
	for i, c := range conds {
		out[i] = c.Attr
	}
	return out
}

// sigOf encodes an attribute set as a map key.
func sigOf(attrs []int) string {
	buf := make([]byte, 0, 4*len(attrs))
	for _, a := range attrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
	}
	return string(buf)
}

// subsetInts reports whether every element of a occurs in b (both sorted
// ascending).
func subsetInts(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// register records a complete answer under its key: the canonical
// predicate key for a real query answer, or the 'R'-marked key of a
// crawl-admitted region set. Overflowing answers are ignored: a truncated
// match set answers nothing but itself.
func (d *completeDir) register(key string, res hidden.Result, at time.Time) {
	if res.Overflow {
		return
	}
	idOrder := isCrawlKey(key)
	pred, ok := predOfKey(d.schema, key)
	if !ok {
		return
	}
	attrs := condAttrs(pred)
	sig := sigOf(attrs)
	d.mu.Lock()
	g, ok := d.groups[sig]
	if !ok {
		g = &completeGroup{attrs: attrs, entries: make(map[string]completeEntry)}
		d.groups[sig] = g
	}
	if prev, ok := g.entries[key]; ok && prev.idOrder {
		d.crawl--
	}
	g.entries[key] = completeEntry{key: key, pred: pred, res: res, storedAt: at, idOrder: idOrder}
	d.sigs[key] = sig
	if idOrder {
		d.crawl++
	}
	d.mu.Unlock()
}

// unregister drops the record for key, if any.
func (d *completeDir) unregister(key string) {
	d.mu.Lock()
	if sig, ok := d.sigs[key]; ok {
		delete(d.sigs, key)
		if g, ok := d.groups[sig]; ok {
			if e, ok := g.entries[key]; ok && e.idOrder {
				d.crawl--
			}
			delete(g.entries, key)
			if len(g.entries) == 0 {
				delete(d.groups, sig)
			}
		}
	}
	d.mu.Unlock()
}

// lookup finds a complete answer whose predicate covers p and assembles
// the narrower result client-side, reporting the winning entry's key so
// the caller can refresh its LRU position — the complete answer serving
// the most traffic must not be evicted as "cold". Only groups whose
// signature is a subset of p's constrained attributes are scanned; among
// covering answers, rank-faithful query answers are preferred over crawl
// sets, then the smallest match set wins (cheapest to filter). A crawl
// set serves only when the filtered match set fits under systemK: its
// tuples are in ID order, and a result the database would truncate cannot
// be emulated without the unknowable rank order. Entries older than ttl
// (when positive) are skipped; the owning shard expires them on its own
// schedule.
func (d *completeDir) lookup(p relation.Predicate, ttl time.Duration, now time.Time, systemK int) (res hidden.Result, key string, viaCrawl, ok bool) {
	pa := condAttrs(p)
	d.mu.RLock()
	var (
		best      completeEntry
		bestCrawl completeEntry
		found     bool
		foundCr   bool
	)
	for _, g := range d.groups {
		if !subsetInts(g.attrs, pa) {
			continue
		}
		for _, e := range g.entries {
			if ttl > 0 && now.Sub(e.storedAt) > ttl {
				continue
			}
			if e.idOrder {
				if (!foundCr || len(e.res.Tuples) < len(bestCrawl.res.Tuples)) && e.pred.Covers(p) {
					bestCrawl, foundCr = e, true
				}
				continue
			}
			if (!found || len(e.res.Tuples) < len(best.res.Tuples)) && e.pred.Covers(p) {
				best, found = e, true
			}
		}
	}
	d.mu.RUnlock()
	if !found {
		if !foundCr {
			return hidden.Result{}, "", false, false
		}
		best, viaCrawl = bestCrawl, true
	}
	out := hidden.Result{Tuples: make([]relation.Tuple, 0, len(best.res.Tuples))}
	for _, t := range best.res.Tuples {
		if p.Match(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	if viaCrawl && systemK > 0 && len(out.Tuples) > systemK {
		// The database would truncate this answer to its unknowable top-k;
		// every other crawl cover filters to the same set, so give up.
		return hidden.Result{}, "", false, false
	}
	return out, best.key, viaCrawl, true
}

// lens reports the number of registered complete answers: rank-faithful
// query answers and crawl-admitted region sets.
func (d *completeDir) lens() (faithful, crawl int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sigs) - d.crawl, d.crawl
}

// purgeRegion drops every registered answer whose predicate intersects
// rect — the containment half of a region-scoped epoch wipe. Disjoint
// complete answers and crawl sets keep serving.
func (d *completeDir) purgeRegion(rect region.Rect) {
	d.mu.Lock()
	for sig, g := range d.groups {
		for key, e := range g.entries {
			if !predIntersectsRect(e.pred, rect) {
				continue
			}
			if e.idOrder {
				d.crawl--
			}
			delete(g.entries, key)
			delete(d.sigs, key)
		}
		if len(g.entries) == 0 {
			delete(d.groups, sig)
		}
	}
	d.mu.Unlock()
}

// purge drops every registered answer.
func (d *completeDir) purge() {
	d.mu.Lock()
	d.groups = make(map[string]*completeGroup)
	d.sigs = make(map[string]string)
	d.crawl = 0
	d.mu.Unlock()
}
