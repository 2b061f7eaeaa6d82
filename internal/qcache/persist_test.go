package qcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/relation"
)

// FuzzDecodeStored feeds arbitrary bytes to the persisted-answer decoder.
// It may not panic, and whatever it accepts must re-encode to the same
// bytes, so a warm boot never admits a record the cache could not have
// written.
func FuzzDecodeStored(f *testing.F) {
	s := testSchema()
	at := time.Unix(1700000000, 123)
	f.Add(encodeStored(hidden.Result{}, at, s.Len()))
	f.Add(encodeStored(hidden.Result{Overflow: true, Tuples: []relation.Tuple{
		{ID: 1, Values: []float64{1.5, 2}},
		{ID: -3, Values: []float64{math.Inf(1), math.NaN()}},
		{ID: 4, Values: []float64{0, -0.25}},
	}}, at, s.Len()))
	f.Add(encodeStored(hidden.Result{Tuples: []relation.Tuple{{ID: 9, Values: []float64{42, 1}}}}, time.Unix(0, -1), s.Len()))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, at, err := decodeStored(data, s)
		if err != nil {
			return
		}
		if back := encodeStored(res, at, s.Len()); !bytes.Equal(back, data) {
			t.Fatalf("record (%d tuples, overflow %v, at %d) re-encodes to %x, decoded from %x",
				len(res.Tuples), res.Overflow, at.UnixNano(), back, data)
		}
	})
}

// priceOnlyDB is a one-attribute source: tuple i has price i.
func priceOnlyDB(t *testing.T) *hidden.Local {
	t.Helper()
	rel := relation.NewRelation("prices", relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000},
	))
	for i := 0; i < 200; i++ {
		rel.MustAppend(relation.Tuple{ID: int64(i), Values: []float64{float64(i)}})
	}
	db, err := hidden.NewLocal("prices", rel, 10, func(tu relation.Tuple) float64 { return tu.Values[0] })
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// bootWithPlanted opens a cache over a store holding the source's
// fingerprint plus one planted q/ record, and checks that the planted
// record did not warm in: price ∈ [40, 45] must reach the database and
// return its true rows.
func bootWithPlanted(t *testing.T, key string, value []byte) {
	t.Helper()
	store := kvstore.NewMemory()
	if _, err := New(priceOnlyDB(t), Config{Store: store}); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(storeKey(key), value); err != nil {
		t.Fatal(err)
	}
	db := priceOnlyDB(t)
	c, err := New(db, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(context.Background(), pricePred(40, 45))
	if err != nil {
		t.Fatal(err)
	}
	if db.QueryCount() != 1 || c.Stats().ContainmentHits != 0 {
		t.Fatalf("query answered from the planted record: %d web queries, %+v", db.QueryCount(), c.Stats())
	}
	if len(got.Tuples) != 6 || got.Tuples[0].ID != 40 || got.Tuples[5].ID != 45 {
		t.Fatalf("price ∈ [40, 45] returned %v", got.Tuples)
	}
	if st := c.Stats(); st.Warmed != 0 {
		t.Fatalf("planted record warmed in: %+v", st)
	}
	if _, ok, _ := store.Get(storeKey(key)); ok {
		t.Fatal("planted record left in the store")
	}
}

// TestWarmBootDropsWrongWidthTuples: a record whose tuple is narrower
// than the schema is corrupt. Admitted, it would answer a containment
// lookup by indexing past the tuple's values.
func TestWarmBootDropsWrongWidthTuples(t *testing.T) {
	res := hidden.Result{Tuples: []relation.Tuple{{ID: 1}}}
	bootWithPlanted(t, KeyOf(pricePred(0, 100)), encodeStored(res, time.Now(), 0))
}

// TestWarmBootDropsNonCanonicalKeys: a key holding a full interval
// (flags zero or carrying unknown bits) is one KeyOf never writes.
// Admitted, it would claim the complete answer of every price range and
// serve the planted tuple for all of them.
func TestWarmBootDropsNonCanonicalKeys(t *testing.T) {
	res := hidden.Result{Tuples: []relation.Tuple{{ID: 999, Values: []float64{42}}}}
	for _, flags := range []byte{0x00, 0xF0} {
		key := []byte{'n', 0, 0, 0, 0}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(math.Inf(-1)))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(math.Inf(1)))
		key = append(key, flags)
		bootWithPlanted(t, string(key), encodeStored(res, time.Now(), 1))
	}
}

// TestWarmBootDropsOtherCodecVersions: a record written under another
// codec version is dropped, so an old store boots cold.
func TestWarmBootDropsOtherCodecVersions(t *testing.T) {
	rec := encodeStored(hidden.Result{Tuples: []relation.Tuple{{ID: 999, Values: []float64{42}}}}, time.Now(), 1)
	rec[0] = codecVersion - 1
	bootWithPlanted(t, KeyOf(pricePred(0, 100)), rec)
}
