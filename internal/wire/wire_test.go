package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/relation"
)

// mixedSchema has numeric and categorical attributes, so both condition
// kinds and their cross-kind rejections are reachable.
func mixedSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000},
		relation.Attribute{Name: "cut", Kind: relation.Categorical, Categories: []string{"fair", "good", "ideal"}},
		relation.Attribute{Name: "carat", Kind: relation.Numeric, Min: 0, Max: 5},
	)
}

func TestRoundTrip(t *testing.T) {
	s := mixedSchema()
	inf := math.Inf(1)
	preds := []relation.Predicate{
		{},
		relation.Predicate{}.WithInterval(0, relation.Closed(12.5, 99.75)),
		relation.Predicate{}.WithInterval(2, relation.Interval{Lo: -inf, Hi: 7, HiOpen: true}),
		relation.Predicate{}.WithCategories(1, []int{2, 0}),
		relation.Predicate{}.WithCategories(1, nil), // empty set: unsatisfiable, still categorical
		relation.Predicate{}.WithInterval(0, relation.OpenLo(1, 2)).WithCategories(1, []int{1}).WithInterval(2, relation.Point(3)),
	}
	for i, p := range preds {
		b := AppendPredicate(nil, p)
		got, err := ReadPredicate(b, s)
		if err != nil {
			t.Fatalf("pred %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Conditions(), p.Conditions()) {
			t.Fatalf("pred %d: %v round-tripped to %v", i, p.Conditions(), got.Conditions())
		}
	}

	rects := []region.Rect{
		{},
		region.MustNew([]int{0, 1, 2}, []relation.Interval{relation.Full(), relation.Closed(0, 2), {Lo: 1, Hi: inf, LoOpen: true}}),
	}
	for i, rc := range rects {
		r := NewReader(AppendRect(nil, rc))
		got := r.Rect(s)
		if err := r.Finish(); err != nil {
			t.Fatalf("rect %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rc) {
			t.Fatalf("rect %d: %+v round-tripped to %+v", i, rc, got)
		}
	}

	ts := []relation.Tuple{{ID: -1, Values: []float64{math.NaN(), 2, -inf}}, {ID: 1 << 40, Values: []float64{0, 0, 0.5}}}
	r := NewReader(AppendTuples(nil, ts, s.Len()))
	got := r.Tuples(s)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].ID != 1<<40 || got[0].ID != -1 ||
		math.Float64bits(got[0].Values[0]) != math.Float64bits(ts[0].Values[0]) || got[0].Values[2] != -inf {
		t.Fatalf("tuples round-tripped to %v", got)
	}
}

// TestReadRejects: every reader refuses bytes no encoder writes, and
// bytes that do not fit the schema.
func TestReadRejects(t *testing.T) {
	s := mixedSchema()
	num := func(attr uint32, lo, hi float64, flags byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{'n'}, attr)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(hi))
		return append(b, flags)
	}
	cat := func(attr uint32, codes ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{'c'}, attr)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(codes)))
		for _, c := range codes {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		return b
	}
	negz := math.Copysign(0, -1)
	preds := map[string][]byte{
		"full interval":           num(0, math.Inf(-1), math.Inf(1), 0),
		"full, unknown flags":     num(0, math.Inf(-1), math.Inf(1), 0xF0),
		"unknown flag bit":        num(0, 1, 2, 4),
		"-0 lo":                   num(0, negz, 2, 0),
		"-0 hi":                   num(0, -2, negz, 0),
		"attr outside schema":     num(3, 1, 2, 0),
		"numeric on cut":          num(1, 1, 2, 0),
		"categorical on price":    cat(0, 1),
		"code outside domain":     cat(1, 3),
		"codes unsorted":          cat(1, 2, 0),
		"codes repeated":          cat(1, 1, 1),
		"hostile code count":      binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{'c'}, 1), 1<<30),
		"attrs descending":        append(num(2, 1, 2, 0), num(0, 1, 2, 0)...),
		"attr repeated":           append(num(0, 1, 2, 0), num(0, 1, 3, 0)...),
		"unknown tag":             {'x'},
		"truncated interval":      num(0, 1, 2, 0)[:13],
		"truncated code list":     cat(1, 0, 1)[:12],
		"cut repeated as numeric": append(cat(1, 0), num(1, 1, 2, 0)...),
	}
	for name, b := range preds {
		if _, err := ReadPredicate(b, s); err == nil {
			t.Errorf("predicate %s: decoded without error", name)
		}
	}

	rect := AppendRect(nil, region.MustNew([]int{0}, []relation.Interval{relation.Closed(1, 2)}))
	rects := map[string][]byte{
		"attr outside schema": AppendRect(nil, region.MustNew([]int{5}, []relation.Interval{relation.Closed(1, 2)})),
		"unknown flag bit":    append(rect[:len(rect)-1:len(rect)-1], 8),
		"trailing byte":       append(rect[:len(rect):len(rect)], 0),
		"hostile dims":        binary.AppendUvarint(nil, 1<<40),
		"non-minimal dims":    {0x81, 0x00},
	}
	for name, b := range rects {
		r := NewReader(b)
		r.Rect(s)
		if r.Finish() == nil {
			t.Errorf("rect %s: decoded without error", name)
		}
	}

	one := AppendTuples(nil, []relation.Tuple{{ID: 5, Values: []float64{1, 2, 3}}}, 3)
	tuples := map[string][]byte{
		"narrower than schema": AppendTuples(nil, []relation.Tuple{{ID: 5}}, 0),
		"wider than schema":    AppendTuples(nil, []relation.Tuple{{ID: 5, Values: []float64{1, 2, 3, 4}}}, 4),
		"hostile count":        binary.AppendUvarint([]byte{3}, 1<<50),
		"non-minimal id":       append([]byte{3, 1, 0x85, 0x00}, one[3:]...),
		"truncated values":     one[:len(one)-1],
	}
	for name, b := range tuples {
		r := NewReader(b)
		r.Tuples(s)
		if r.Finish() == nil {
			t.Errorf("tuples %s: decoded without error", name)
		}
	}
	if r := NewReader([]byte{2}); r.Bool() || r.Err() == nil {
		t.Error("bool byte 2 decoded")
	}
}

// FuzzCodec feeds arbitrary bytes to the tuple, predicate and rect
// readers over a mixed numeric/categorical schema. None may panic, and
// whatever one accepts must re-encode to the same bytes.
func FuzzCodec(f *testing.F) {
	s := mixedSchema()
	f.Add(AppendPredicate(nil, relation.Predicate{}.WithInterval(0, relation.OpenHi(1, 2)).WithCategories(1, []int{0, 2})))
	f.Add(AppendPredicate(nil, relation.Predicate{}.WithInterval(2, relation.Interval{Lo: math.Inf(-1), Hi: 0, LoOpen: true})))
	f.Add(AppendRect(nil, region.MustNew([]int{0, 2}, []relation.Interval{relation.Full(), relation.OpenLo(0, 1)})))
	f.Add(AppendTuples(nil, []relation.Tuple{{ID: 1, Values: []float64{1, 2, math.NaN()}}, {ID: -7, Values: []float64{0, 0, 0}}}, 3))
	f.Add(AppendTuples(nil, nil, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := ReadPredicate(data, s); err == nil {
			if back := AppendPredicate(nil, p); !bytes.Equal(back, data) {
				t.Fatalf("predicate %v re-encodes to %x, decoded from %x", p, back, data)
			}
		}
		r := NewReader(data)
		if rc := r.Rect(s); r.Finish() == nil {
			if back := AppendRect(nil, rc); !bytes.Equal(back, data) {
				t.Fatalf("rect %v re-encodes to %x, decoded from %x", rc, back, data)
			}
		}
		r = NewReader(data)
		if ts := r.Tuples(s); r.Finish() == nil {
			if back := AppendTuples(nil, ts, s.Len()); !bytes.Equal(back, data) {
				t.Fatalf("%d tuples re-encode to %x, decoded from %x", len(ts), back, data)
			}
		}
	})
}
