package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/hidden"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// fuzzNode builds one standalone node with a registered mixed-schema
// namespace, so fuzzed frames can reach every server decode path —
// lookup, batch, admission — not just the framing layer.
func fuzzNode(tb testing.TB) (*Node, *relation.Schema) {
	tb.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 100, Resolution: 1},
		relation.Attribute{Name: "cut", Kind: relation.Categorical, Categories: []string{"fair", "good", "ideal"}},
	)
	rel := relation.NewRelation("gems", schema)
	for i := 0; i < 64; i++ {
		rel.MustAppend(relation.Tuple{ID: int64(i + 1), Values: []float64{float64(i % 100), float64(i % 3)}})
	}
	inner, err := hidden.NewLocal("gems", rel, 10, func(t relation.Tuple) float64 { return t.Values[0] })
	if err != nil {
		tb.Fatal(err)
	}
	cache, err := qcache.New(inner, qcache.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := New(Config{Self: "z", Peers: map[string]string{"z": "http://127.0.0.1:0"}, VirtualNodes: 8})
	if err != nil {
		tb.Fatal(err)
	}
	n.Source("gems", cache, inner)
	return n, schema
}

// fuzzSeeds builds the seed corpus: one well-formed frame per op, the
// client-decoded response shapes, and the canonical hostile inputs —
// truncations, oversized length prefixes, unknown ops, and counts that
// promise more elements than the frame can hold.
func fuzzSeeds() [][]byte {
	pred := relation.Predicate{}.WithInterval(0, relation.Closed(10, 20)).WithCategories(1, []int{0, 2})
	key := qcache.KeyOf(pred)
	scope := &region.Rect{Attrs: []int{0}, Ivs: []relation.Interval{relation.OpenLo(1, 2)}}

	frameOf := func(op byte, id uint64, body func(w *wireWriter)) []byte {
		var w wireWriter
		start := beginFrame(&w, op, 0, id)
		body(&w)
		endFrame(&w, start)
		return w.buf
	}
	entry := func() []byte {
		var e wireWriter
		appendGetEntry(&e, "gems", 3, scope, true, key)
		return e.buf
	}

	seeds := [][]byte{
		// Well-formed server-bound frames.
		frameOf(opGet, 1, func(w *wireWriter) { w.buf = append(w.buf, entry()...) }),
		frameOf(opBatchGet, 2, func(w *wireWriter) {
			w.uvarint(3)
			for i := 0; i < 3; i++ {
				w.bytes(entry())
			}
		}),
		frameOf(opPut, 3, func(w *wireWriter) {
			w.str("gems")
			w.uvarint(3)
			appendScope(w, scope)
			w.bool(true)
			w.bool(false)
			w.str(key)
			w.buf = wire.AppendTuples(w.buf, []relation.Tuple{{ID: 9, Values: []float64{5, 1}}}, 2)
		}),
		// Retired ops 7 (ring pull) and 9 (obs pull): unknown to the server
		// now, so they must draw an opErr, not a panic or a dead stream.
		frameOf(7, 4, func(w *wireWriter) {}),
		frameOf(9, 5, func(w *wireWriter) {}),
		frameOf(opHello, 6, func(w *wireWriter) {
			w.str(protoMagic)
			w.uvarint(protoVersion)
			w.str("a")
		}),
		// Well-formed client-bound frames (exercise the response decoders).
		frameOf(opGetResp, 7, func(w *wireWriter) {
			appendGetResponse(w, getResponse{
				found: true, eseq: 3, scope: scope,
				tuples: []relation.Tuple{{ID: 1, Values: []float64{1, 2}}},
			}, 2)
		}),
		func() []byte {
			var w wireWriter
			appendErrFrame(&w, 8, 503, "busy")
			return w.buf
		}(),
		// Hostile shapes.
		frameOf(99, 9, func(w *wireWriter) { w.str("junk") }),    // unknown op
		frameOf(opGet, 10, func(w *wireWriter) { w.uvarint(1) }), // truncated entry
		frameOf(opBatchGet, 11, func(w *wireWriter) { w.uvarint(1 << 40) }),
		frameOf(opGet, 12, func(w *wireWriter) { // hostile tuple count inside a put-shaped body
			w.str("gems")
			w.uvarint(0)
			w.u8(0)
			w.bool(false)
			w.uvarint(1 << 50)
		}),
		binary.LittleEndian.AppendUint32(nil, maxFrameLen+1),       // oversized length prefix
		binary.LittleEndian.AppendUint32(nil, frameHeaderLen-1),    // undersized length prefix
		append(binary.LittleEndian.AppendUint32(nil, 64), 1, 2, 3), // truncated body
		{},
	}
	return seeds
}

// FuzzV2Frames feeds an arbitrary byte stream through the same path a
// peer connection uses — readFrame, then the server's op dispatch and
// the client-side response decoders. The invariants: no panic, hostile
// counts die at the guard (not at an allocation), and every server
// answer — an opErr for an op it does not know — is itself a
// well-formed frame echoing the request id, so the stream stays usable.
func FuzzV2Frames(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	n, schema := fuzzNode(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := readFrame(br)
			if err != nil {
				return // framing lost: the stream is dead, like a real conn
			}
			resp, err := readFrame(bufio.NewReader(bytes.NewReader(n.v2Serve(fr, nil))))
			if err != nil {
				t.Fatalf("server answered an unparseable frame: %v", err)
			}
			if resp.id != fr.id {
				t.Fatalf("response id %d for request id %d", resp.id, fr.id)
			}
			switch fr.op {
			case opGet, opBatchGet, opPut:
			default:
				if resp.op != opErr {
					t.Fatalf("unknown op %d answered op %d, want opErr", fr.op, resp.op)
				}
				// Client-side response decoders must hold the same
				// no-panic line against arbitrary payloads.
				decodeGetResponse(wire.NewReader(fr.payload), schema)
				decodeWireErr(fr.payload)
				decodeSubtree(wire.NewReader(fr.payload))
			}
		}
	})
}

// TestFuzzCorpusCheckedIn verifies the checked-in seed corpus under
// testdata/fuzz/FuzzV2Frames matches fuzzSeeds, so `go test -fuzz` and
// plain `go test` start from the same inputs. Run with -update-corpus to
// regenerate after changing the wire format.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzV2Frames")
	seeds := fuzzSeeds()
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range seeds {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)))
		if err != nil {
			t.Fatalf("missing corpus file (set UPDATE_FUZZ_CORPUS=1 to regenerate): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		if string(b) != want {
			t.Fatalf("corpus file seed-%02d is stale; set UPDATE_FUZZ_CORPUS=1 to regenerate", i)
		}
	}
}
