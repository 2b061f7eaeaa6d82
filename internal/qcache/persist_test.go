package qcache

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/relation"
)

// FuzzDecodeStored feeds arbitrary bytes to the persisted-answer decoder.
// It may not panic, and whatever it accepts must re-encode to the same
// bytes, so a warm boot never admits a record the cache could not have
// written.
func FuzzDecodeStored(f *testing.F) {
	at := time.Unix(1700000000, 123)
	f.Add(encodeStored(hidden.Result{}, at))
	f.Add(encodeStored(hidden.Result{Overflow: true, Tuples: []relation.Tuple{
		{ID: 1, Values: []float64{1.5, 2}},
		{ID: -3, Values: []float64{math.Inf(1), math.NaN(), 0, -0.25}},
		{ID: 4},
	}}, at))
	f.Add(encodeStored(hidden.Result{Tuples: []relation.Tuple{{ID: 9, Values: []float64{42}}}}, time.Unix(0, -1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, at, err := decodeStored(data)
		if err != nil {
			return
		}
		if back := encodeStored(res, at); !bytes.Equal(back, data) {
			t.Fatalf("record (%d tuples, overflow %v, at %d) re-encodes to %x, decoded from %x",
				len(res.Tuples), res.Overflow, at.UnixNano(), back, data)
		}
	})
}
