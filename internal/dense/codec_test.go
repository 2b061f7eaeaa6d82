package dense

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// xySchema is the two-attribute numeric schema the record tests decode
// against (schema(t) without a test handle, for fuzz targets).
func xySchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "x", Kind: relation.Numeric, Min: 0, Max: 1000},
		relation.Attribute{Name: "y", Kind: relation.Numeric, Min: 0, Max: 1000},
	)
}

// readBlob decodes a t/ tuple blob the way Index.Tuples does.
func readBlob(blob []byte, s *relation.Schema) ([]relation.Tuple, error) {
	r := wire.NewReader(blob)
	ts := r.Tuples(s)
	return ts, r.Finish()
}

// TestDecodeTuplesBoundsCountBeforeAllocating: a 4-byte blob that claims
// 2^20 tuples is rejected before a slice for them is allocated.
func TestDecodeTuplesBoundsCountBeforeAllocating(t *testing.T) {
	blob := binary.AppendUvarint([]byte{2}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBlob(blob, xySchema())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("blob claiming 2^20 tuples in 4 bytes decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the blob allocated %d bytes", got)
	}
}

// TestDecodersRejectNonCanonicalBytes: the decoders accept only what the
// encoders write, so a decoded record always re-encodes to its input.
func TestDecodersRejectNonCanonicalBytes(t *testing.T) {
	s := xySchema()
	tuples := wire.AppendTuples(nil, mkTuples(3, 4), s.Len())
	if _, err := readBlob(append(tuples, 0), s); err == nil {
		t.Fatal("tuple blob with a trailing byte decoded")
	}
	entry := encodeEntry(Entry{ID: 9, Count: 3, Rect: region.MustNew([]int{1}, []relation.Interval{relation.OpenHi(0, 5)})})
	if _, err := decodeEntry(append(entry, 0), s); err == nil {
		t.Fatal("entry record with a trailing byte decoded")
	}
	entry[len(entry)-1] |= 4
	if _, err := decodeEntry(entry, s); err == nil {
		t.Fatal("entry record with an unknown interval flag decoded")
	}
}

// TestOpenDropsWrongWidthBlob: a tuple blob narrower than the schema is
// corrupt. Kept, its tuples would be indexed past their values by the
// first TopIn that filters on the missing attribute.
func TestOpenDropsWrongWidthBlob(t *testing.T) {
	store := kvstore.NewMemory()
	s := xySchema()
	ix, err := Open(s, store)
	if err != nil {
		t.Fatal(err)
	}
	rect := region.MustNew([]int{0, 1}, []relation.Interval{relation.Closed(0, 100), relation.Closed(0, 100)})
	e, err := ix.Insert(rect, mkTuples(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	narrow := []relation.Tuple{{ID: 1, Values: []float64{50}}}
	if err := store.Put(tuplesKey(e.ID), wire.AppendTuples(nil, narrow, 1)); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(s, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.TopIn(e.ID, rect, relation.Predicate{}, nil, nil, 0); err == nil {
		t.Fatal("TopIn served the dropped entry")
	}
	if ix2.Len() != 0 {
		t.Fatalf("entry with a 1-wide tuple blob survived boot verification: %d", ix2.Len())
	}
	if store.Len() != 0 {
		t.Fatalf("dropped entry left %d records in the store", store.Len())
	}
}

// FuzzDecodeRecords feeds arbitrary bytes to both dense record decoders:
// directory entries (decodeEntry) and tuple blobs. Neither may panic, and
// whatever one accepts must re-encode to the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	s := xySchema()
	f.Add(wire.AppendTuples(nil, nil, s.Len()))
	f.Add(wire.AppendTuples(nil, mkTuples(4, 1), s.Len()))
	f.Add(wire.AppendTuples(nil, []relation.Tuple{{ID: -1, Values: []float64{math.Inf(-1), math.NaN()}}, {ID: 2, Values: []float64{0, 0}}}, s.Len()))
	f.Add(encodeEntry(Entry{ID: 1, Count: 0, Rect: region.MustNew(nil, nil)}))
	f.Add(encodeEntry(Entry{ID: 7, Count: 20, Rect: region.MustNew([]int{0, 1}, []relation.Interval{
		relation.Closed(1, 2), {Lo: math.Inf(-1), Hi: 5, LoOpen: true, HiOpen: true},
	})}))
	f.Add(binary.AppendUvarint([]byte{2}, 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeEntry(data, s); err == nil {
			if back := encodeEntry(e); !bytes.Equal(back, data) {
				t.Fatalf("entry %+v re-encodes to %x, decoded from %x", e, back, data)
			}
		}
		if ts, err := readBlob(data, s); err == nil {
			if back := wire.AppendTuples(nil, ts, s.Len()); !bytes.Equal(back, data) {
				t.Fatalf("%d tuples re-encode to %x, decoded from %x", len(ts), back, data)
			}
		}
	})
}
