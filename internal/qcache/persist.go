package qcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/hidden"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Persistence layout. The store holds one epoch record describing the
// source version the cache was filled from, plus one record per cached
// search:
//
//	m/src        sha256(name, system-k, schema JSON) || epoch seq (8 bytes LE)
//	q/<key>      u8 codecVersion | uvarint storedAt (unix nanos) | u8 overflow | tuples
//
// <key> is the answer's canonical predicate key ('R'-marked for a crawl
// set) and tuples is the wire tuple layout (internal/wire). At boot a
// record is dropped unless its key decodes against the live schema and
// its value is exactly what encodeStored writes; a record of another
// codecVersion is dropped the same way, so the namespace starts cold.
//
// At boot the fingerprint half is compared against the live database; any
// mismatch (different catalog, different system-k, changed schema) wipes
// the store, because every cached answer was produced by a source that no
// longer exists, and the recovered epoch seq is advanced past the stored
// one so cluster peers still on the old epoch re-synchronize. On a match
// the stored seq is adopted, so a restart resumes the epoch lineage
// instead of resetting it. Records written before the seq suffix existed
// (a bare 32-byte fingerprint) are read as seq 1.
//
// The epoch lifecycle (internal/epoch) extends the same verification to a
// running process: a change-detection bump calls adoptEpoch, which wipes
// the q/ records and rewrites m/src with the new seq while the namespace
// keeps serving.

const codecVersion = 2

var fingerprintKey = []byte("m/src")

func storeKey(key string) []byte {
	k := make([]byte, 0, 2+len(key))
	k = append(k, 'q', '/')
	return append(k, key...)
}

// fingerprint hashes the identity of the source behind the cache.
func fingerprint(db hidden.DB) ([]byte, error) {
	schemaJSON, err := json.Marshal(db.Schema())
	if err != nil {
		return nil, fmt.Errorf("qcache: fingerprint schema: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", db.Name(), db.SystemK())
	h.Write(schemaJSON)
	return h.Sum(nil), nil
}

// openStore verifies the stored epoch record (wiping a stale store) and
// loads the surviving entries oldest-first, so the LRU ends up
// newest-at-front and the byte budget drops the oldest answers.
// Crawl-admitted region sets persist under their 'R'-marked keys and
// re-enter the containment directory exactly as they left it. On a
// fingerprint match the persisted epoch seq is adopted into
// ns.epochSeq; on a mismatch the store is wiped and the seq advanced
// past the stored one.
func (ns *namespace) openStore() error {
	got, ok, err := ns.store.Get(fingerprintKey)
	if err != nil {
		return fmt.Errorf("qcache: read fingerprint: %w", err)
	}
	storedSeq := uint64(1)
	if ok && len(got) >= len(ns.fp)+8 {
		storedSeq = binary.LittleEndian.Uint64(got[len(ns.fp) : len(ns.fp)+8])
	}
	if !ok || len(got) < len(ns.fp) || !bytes.Equal(got[:len(ns.fp)], ns.fp) {
		if err := ns.wipeStore(); err != nil {
			return err
		}
		if ok {
			// A changed source identity observed across a restart is an
			// epoch bump like any other: the lineage continues past the
			// stored seq instead of resetting, so peers still holding the
			// old epoch adopt the new one rather than the reverse.
			storedSeq++
		}
		ns.epochSeq.Store(storedSeq)
		return ns.writeMeta()
	}
	ns.epochSeq.Store(storedSeq)
	if err := ns.writeMeta(); err != nil {
		return err
	}

	type warmEntry struct {
		key      string
		res      hidden.Result
		storedAt time.Time
	}
	var (
		warm    []warmEntry
		corrupt [][]byte
	)
	now := ns.pool.now()
	schema := ns.inner.Schema()
	err = ns.store.Range(func(key, value []byte) bool {
		if len(key) < 2 || key[0] != 'q' || key[1] != '/' {
			return true
		}
		res, at, derr := decodeStored(value, schema)
		if _, ok := predOfKey(schema, string(key[2:])); derr != nil || !ok {
			// A corrupt record is dropped rather than trusted; the
			// search will simply be re-issued on demand.
			corrupt = append(corrupt, append([]byte(nil), key...))
			return true
		}
		if ns.ttl > 0 && now.Sub(at) > ns.ttl {
			corrupt = append(corrupt, append([]byte(nil), key...))
			return true
		}
		warm = append(warm, warmEntry{key: string(key[2:]), res: res, storedAt: at})
		return true
	})
	if err != nil {
		return fmt.Errorf("qcache: load store: %w", err)
	}
	for _, key := range corrupt {
		_ = ns.store.Delete(key)
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i].storedAt.Before(warm[j].storedAt) })
	var overflow []victim // records the budget could not readmit
	for _, w := range warm {
		pkey := ns.prefix + w.key
		sh := ns.pool.shardFor(pkey)
		sh.mu.Lock()
		admitted, victims := ns.insertLocked(sh, pkey, w.res, w.storedAt)
		sh.mu.Unlock()
		if !admitted {
			overflow = append(overflow, victim{ns: ns, key: w.key})
		}
		overflow = append(overflow, victims...)
	}
	// Oversized entries (crawl sets past the shard share) warm back in
	// against the global budget; settle it once after the batch.
	overflow = append(overflow, ns.pool.enforceGlobal(ns, "")...)
	deleteVictims(overflow)
	ns.warmed = int(ns.entries.Load())
	return nil
}

// persist writes one filled entry to the store, best-effort: a failed
// write only costs warmth after the next restart. Durability rides on the
// store's own crash recovery; no explicit sync per entry. seq is the
// epoch the answer was produced under; the write is skipped when the
// namespace has moved on and the answer's predicate cannot be proven
// disjoint from every bump since (the same admissibleAt fence the
// in-memory admission passed) — otherwise a slow leader could re-persist
// an invalidated answer after an epoch wipe already cleaned the store,
// and a restart would warm it back. storeMu orders the check against
// adoptEpoch's wipe: the seq advances before the wipe takes the lock, so
// a persist that passes the check is removed by the wipe when it
// intersects, and a persist after the wipe fails the check.
func (ns *namespace) persist(key string, p relation.Predicate, res hidden.Result, seq uint64) {
	ns.storeMu.Lock()
	defer ns.storeMu.Unlock()
	if !ns.admissibleAt(seq, p) {
		return
	}
	_ = ns.store.Put(storeKey(key), encodeStored(res, ns.pool.now(), ns.inner.Schema().Len()))
}

// writeMeta records the namespace's source identity and current epoch
// seq under the meta key.
func (ns *namespace) writeMeta() error {
	v := make([]byte, 0, len(ns.fp)+8)
	v = append(v, ns.fp...)
	v = binary.LittleEndian.AppendUint64(v, ns.epochSeq.Load())
	if err := ns.store.Put(fingerprintKey, v); err != nil {
		return fmt.Errorf("qcache: write fingerprint: %w", err)
	}
	return nil
}

// wipeStore removes every record, fingerprint included.
func (ns *namespace) wipeStore() error {
	var keys [][]byte
	err := ns.store.Range(func(key, _ []byte) bool {
		keys = append(keys, append([]byte(nil), key...))
		return true
	})
	if err != nil {
		return fmt.Errorf("qcache: wipe store: %w", err)
	}
	for _, k := range keys {
		if err := ns.store.Delete(k); err != nil {
			return fmt.Errorf("qcache: wipe store: %w", err)
		}
	}
	return nil
}

// wipeRecords removes every answer record — q/-prefixed keys, which
// include the 'R'-marked crawl sets — but keeps the meta record, which
// the caller rewrites with the new epoch seq.
func (ns *namespace) wipeRecords() error {
	var keys [][]byte
	err := ns.store.Range(func(key, _ []byte) bool {
		if len(key) >= 2 && key[0] == 'q' && key[1] == '/' {
			keys = append(keys, append([]byte(nil), key...))
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("qcache: wipe records: %w", err)
	}
	for _, k := range keys {
		if err := ns.store.Delete(k); err != nil {
			return fmt.Errorf("qcache: wipe records: %w", err)
		}
	}
	return nil
}

// wipeRecordsRegion removes the answer records whose predicate intersects
// rect — the persistent half of a region-scoped epoch wipe. Disjoint
// records (and the meta record) survive, so a restart warms the retained
// half of the namespace back; undecodable keys are conservatively
// dropped.
func (ns *namespace) wipeRecordsRegion(rect region.Rect) error {
	var keys [][]byte
	err := ns.store.Range(func(key, _ []byte) bool {
		if len(key) >= 2 && key[0] == 'q' && key[1] == '/' && keyIntersects(ns.inner.Schema(), string(key[2:]), rect) {
			keys = append(keys, append([]byte(nil), key...))
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("qcache: wipe region records: %w", err)
	}
	for _, k := range keys {
		if err := ns.store.Delete(k); err != nil {
			return fmt.Errorf("qcache: wipe region records: %w", err)
		}
	}
	return nil
}

// encodeStored serialises one search result of the given tuple width
// with its fill time.
func encodeStored(res hidden.Result, at time.Time, width int) []byte {
	buf := []byte{codecVersion}
	buf = binary.AppendUvarint(buf, uint64(at.UnixNano()))
	var overflow byte
	if res.Overflow {
		overflow = 1
	}
	buf = append(buf, overflow)
	return wire.AppendTuples(buf, res.Tuples, width)
}

// decodeStored parses a persisted record against the source's schema. It
// accepts exactly the bytes encodeStored writes.
func decodeStored(buf []byte, schema *relation.Schema) (hidden.Result, time.Time, error) {
	r := wire.NewReader(buf)
	if v := r.U8(); v != codecVersion {
		r.Fail("qcache: record codec version %d, want %d", v, codecVersion)
	}
	at := time.Unix(0, int64(r.Uvarint()))
	res := hidden.Result{Overflow: r.Bool()}
	res.Tuples = r.Tuples(schema)
	if err := r.Finish(); err != nil {
		return hidden.Result{}, time.Time{}, err
	}
	return res, at, nil
}
