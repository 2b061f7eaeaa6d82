package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// codecSchema is the mixed fixture the codec tests decode against: one
// numeric and one categorical attribute, so both condition kinds and
// their cross-kind rejections are reachable.
func codecSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
		relation.Attribute{Name: "cut", Kind: relation.Categorical, Categories: []string{"fair", "good", "ideal"}},
	)
}

func TestPredicateRoundTrip(t *testing.T) {
	s := codecSchema(t)
	preds := []relation.Predicate{
		{},
		relation.Predicate{}.WithInterval(0, relation.Closed(12.5, 99.75)),
		relation.Predicate{}.WithInterval(0, relation.Interval{Lo: 0.1, Hi: 0.3, LoOpen: true, HiOpen: true}),
		relation.Predicate{}.WithInterval(0, relation.Interval{Lo: math.Inf(-1), Hi: 7}),
		relation.Predicate{}.WithCategories(1, []int{0, 2}),
		relation.Predicate{}.WithInterval(0, relation.Closed(1, 2)).WithCategories(1, []int{1}),
	}
	for i, p := range preds {
		var w wireWriter
		w.str(qcache.KeyOf(p))
		rd := wire.NewReader(w.buf)
		got := rd.Predicate(s)
		if err := rd.Finish(); err != nil {
			t.Fatalf("pred %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Conditions(), p.Conditions()) {
			t.Fatalf("pred %d: %v round-tripped to %v", i, p.Conditions(), got.Conditions())
		}
	}
}

// TestPredicateBitExactBounds: float bounds must survive the wire with
// their exact bit patterns, because both ends derive the canonical cache
// key from them.
func TestPredicateBitExactBounds(t *testing.T) {
	s := codecSchema(t)
	lo := math.Nextafter(0.1, 1)
	hi := math.Nextafter(0.3, 0)
	p := relation.Predicate{}.WithInterval(0, relation.Closed(lo, hi))
	var w wireWriter
	w.str(qcache.KeyOf(p))
	rd := wire.NewReader(w.buf)
	got := rd.Predicate(s)
	iv := got.Interval(0)
	if math.Float64bits(iv.Lo) != math.Float64bits(lo) || math.Float64bits(iv.Hi) != math.Float64bits(hi) {
		t.Fatalf("bounds drifted: got [%x, %x] want [%x, %x]",
			math.Float64bits(iv.Lo), math.Float64bits(iv.Hi), math.Float64bits(lo), math.Float64bits(hi))
	}
}

// numCond and catCond append one condition record of the canonical key
// layout, whatever its validity.
func numCond(b []byte, attr uint32, lo, hi float64, flags byte) []byte {
	b = append(b, 'n')
	b = binary.LittleEndian.AppendUint32(b, attr)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lo))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(hi))
	return append(b, flags)
}

func catCond(b []byte, attr uint32, codes ...uint32) []byte {
	b = append(b, 'c')
	b = binary.LittleEndian.AppendUint32(b, attr)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(codes)))
	for _, c := range codes {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return b
}

func TestPredicateDecodeRejects(t *testing.T) {
	s := codecSchema(t)
	cases := []struct {
		name  string
		build func(w *wireWriter)
	}{
		{"attr outside schema", func(w *wireWriter) {
			w.bytes(numCond(nil, 7, 1, 2, 0)) // attr 7 of 2
		}},
		{"numeric condition on categorical attr", func(w *wireWriter) {
			w.bytes(numCond(nil, 1, 1, 2, 0)) // "cut"
		}},
		{"categorical condition on numeric attr", func(w *wireWriter) {
			w.bytes(catCond(nil, 0, 0)) // "price"
		}},
		{"category code outside domain", func(w *wireWriter) {
			w.bytes(catCond(nil, 1, 9)) // "cut" has 3 categories
		}},
		{"hostile condition count", func(w *wireWriter) {
			w.uvarint(1 << 40)
		}},
		{"truncated interval", func(w *wireWriter) {
			w.bytes(numCond(nil, 0, 1, 2, 0)[:13]) // hi + flags missing
		}},
	}
	for _, tc := range cases {
		var w wireWriter
		tc.build(&w)
		rd := wire.NewReader(w.buf)
		rd.Predicate(s)
		if rd.Err() == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestTuplesRoundTrip(t *testing.T) {
	s := codecSchema(t)
	ts := []relation.Tuple{
		{ID: 1, Values: []float64{12.5, 0}},
		{ID: 900000, Values: []float64{-3.25, 2}},
	}
	rd := wire.NewReader(wire.AppendTuples(nil, ts, s.Len()))
	got := rd.Tuples(s)
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatalf("got %v want %v", got, ts)
	}

	// Width mismatch: a peer running a different schema must be rejected
	// before any tuple is materialised.
	rd = wire.NewReader(wire.AppendTuples(nil, []relation.Tuple{{ID: 1, Values: []float64{1, 2, 3}}}, 3))
	if rd.Tuples(s); rd.Err() == nil {
		t.Fatal("3-wide tuples decoded against a 2-attr schema")
	}

	// A hostile tuple count dies at the guard, before allocation.
	var w3 wireWriter
	w3.uvarint(uint64(s.Len()))
	w3.uvarint(1 << 50)
	rd = wire.NewReader(w3.buf)
	if rd.Tuples(s); rd.Err() == nil {
		t.Fatal("hostile tuple count decoded without error")
	}
}

func TestScopeRoundTrip(t *testing.T) {
	s := codecSchema(t)
	for _, sc := range []*region.Rect{
		nil,
		{Attrs: []int{0}, Ivs: []relation.Interval{{Lo: 1, Hi: 9, LoOpen: true, HiOpen: true}}},
		{Attrs: []int{0, 1}, Ivs: []relation.Interval{ // denormal bounds survive bit-exact
			{Lo: math.Float64frombits(1), Hi: math.Float64frombits(3)},
			{Lo: math.Float64frombits(2), Hi: math.Float64frombits(4), LoOpen: true},
		}},
	} {
		var w wireWriter
		appendScope(&w, sc)
		rd := wire.NewReader(w.buf)
		got := readScope(rd, s)
		if err := rd.Finish(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("got %+v want %+v", got, sc)
		}
	}

	// Truncated bounds fail rather than produce a partial rect.
	var w wireWriter
	w.u8(1)
	w.uvarint(2)
	w.uvarint(0)
	rd := wire.NewReader(w.buf)
	if readScope(rd, s); rd.Err() == nil {
		t.Fatal("truncated scope decoded without error")
	}
}

func TestSubtreeRoundTrip(t *testing.T) {
	st := &obs.Subtree{Replica: "b", Spans: []obs.WireSpan{
		{G: 1, O: 2, S: 0, D: 12345, Q: 3, R: "b", L: 1},
		{G: 4, O: 0, S: 99, D: 1, Q: 0, R: "", L: 0},
	}}
	var w wireWriter
	appendSubtree(&w, st)
	rd := wire.NewReader(w.buf)
	got := decodeSubtree(rd)
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("got %+v want %+v", got, st)
	}

	// nil and empty encode as absent.
	for _, empty := range []*obs.Subtree{nil, {Replica: "x"}} {
		var w2 wireWriter
		appendSubtree(&w2, empty)
		rd = wire.NewReader(w2.buf)
		if got := decodeSubtree(rd); got != nil {
			t.Fatalf("empty subtree decoded as %+v", got)
		}
	}
}

func TestGetResponseRoundTrip(t *testing.T) {
	s := codecSchema(t)
	resps := []getResponse{
		{found: false, eseq: 7},
		{
			found: true, overflow: true, eseq: 42,
			scope:  &region.Rect{Attrs: []int{0}, Ivs: []relation.Interval{relation.Closed(1, 2)}},
			tuples: []relation.Tuple{{ID: 5, Values: []float64{1, 2}}},
			trace:  &obs.Subtree{Replica: "b", Spans: []obs.WireSpan{{G: 1, O: 1, D: 10}}},
		},
		// found with zero tuples: an empty resident answer is a hit, and
		// must not collapse into a miss on the wire.
		{found: true, eseq: 1},
	}
	for i, resp := range resps {
		var w wireWriter
		appendGetResponse(&w, resp, s.Len())
		rd := wire.NewReader(w.buf)
		got := decodeGetResponse(rd, s)
		if err := rd.Finish(); err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("resp %d: got %+v want %+v", i, got, resp)
		}
	}
}

func TestErrFrameRoundTrip(t *testing.T) {
	var w wireWriter
	appendErrFrame(&w, 77, 503, "busy")
	f, err := readFrame(bufio.NewReader(bytes.NewReader(w.buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.op != opErr || f.id != 77 {
		t.Fatalf("frame header: %+v", f)
	}
	werr := decodeWireErr(f.payload)
	var we *wireError
	if !errors.As(werr, &we) || we.code != 503 || we.msg != "busy" {
		t.Fatalf("decoded %v", werr)
	}
}

func TestFrameLayerRejects(t *testing.T) {
	read := func(b []byte) error {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(b)))
		return err
	}
	// Oversized length prefix: rejected before any allocation.
	huge := binary.LittleEndian.AppendUint32(nil, maxFrameLen+1)
	if err := read(huge); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("oversized prefix: %v", err)
	}
	// A length too small to hold the frame header.
	tiny := binary.LittleEndian.AppendUint32(nil, frameHeaderLen-1)
	if err := read(tiny); err == nil {
		t.Fatal("undersized prefix accepted")
	}
	// Truncated body: the prefix promises more than the stream holds.
	short := binary.LittleEndian.AppendUint32(nil, 100)
	short = append(short, make([]byte, 20)...)
	if err := read(short); err == nil {
		t.Fatal("truncated body accepted")
	}
	// Trailing garbage after a payload fails Finish().
	var w wireWriter
	w.bool(true)
	w.u8(99)
	rd := wire.NewReader(w.buf)
	rd.Bool()
	if err := rd.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
