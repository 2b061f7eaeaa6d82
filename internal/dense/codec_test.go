package dense

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/region"
	"repro/internal/relation"
)

// TestDecodeTuplesBoundsCountBeforeAllocating: a 4-byte blob that claims
// 2^20 tuples is rejected before a slice for them is allocated.
func TestDecodeTuplesBoundsCountBeforeAllocating(t *testing.T) {
	blob := binary.LittleEndian.AppendUint32(nil, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeTuples(blob)
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
	tuples := encodeTuples(mkTuples(3, 4))
	if _, err := decodeTuples(append(tuples, 0)); err == nil {
		t.Fatal("tuple blob with a trailing byte decoded")
	}
	entry := encodeEntry(Entry{ID: 9, Count: 3, Rect: region.MustNew([]int{1}, []relation.Interval{relation.OpenHi(0, 5)})})
	if _, err := decodeEntry(append(entry, 0)); err == nil {
		t.Fatal("entry record with a trailing byte decoded")
	}
	entry[len(entry)-1] |= 4
	if _, err := decodeEntry(entry); err == nil {
		t.Fatal("entry record with an unknown interval flag decoded")
	}
}

// FuzzDecodeRecords feeds arbitrary bytes to both dense record decoders:
// directory entries (decodeEntry) and tuple blobs (decodeTuples). Neither
// may panic, and whatever one accepts must re-encode to the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(encodeTuples(nil))
	f.Add(encodeTuples(mkTuples(4, 1)))
	f.Add(encodeTuples([]relation.Tuple{{ID: -1, Values: []float64{math.Inf(-1), math.NaN(), 0}}, {ID: 2}}))
	f.Add(encodeEntry(Entry{ID: 1, Count: 0, Rect: region.MustNew(nil, nil)}))
	f.Add(encodeEntry(Entry{ID: 7, Count: 20, Rect: region.MustNew([]int{0, 3}, []relation.Interval{
		relation.Closed(1, 2), {Lo: math.Inf(-1), Hi: 5, LoOpen: true, HiOpen: true},
	})}))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeEntry(data); err == nil {
			if back := encodeEntry(e); !bytes.Equal(back, data) {
				t.Fatalf("entry %+v re-encodes to %x, decoded from %x", e, back, data)
			}
		}
		if ts, err := decodeTuples(data); err == nil {
			if back := encodeTuples(ts); !bytes.Equal(back, data) {
				t.Fatalf("%d tuples re-encode to %x, decoded from %x", len(ts), back, data)
			}
		}
	})
}
