package dense

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

func schema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attribute{Name: "x", Kind: relation.Numeric, Min: 0, Max: 1000},
		relation.Attribute{Name: "y", Kind: relation.Numeric, Min: 0, Max: 1000},
	)
}

func mkTuples(n int, seed int64) []relation.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{ID: int64(i + 1), Values: []float64{r.Float64() * 100, r.Float64() * 100}}
	}
	return out
}

func TestInsertFindTuples(t *testing.T) {
	ix, err := Open(schema(t), kvstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	tuples := mkTuples(50, 1)
	e, err := ix.Insert(rect, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if e.Count != 50 {
		t.Fatalf("Count = %d", e.Count)
	}
	inner := region.MustNew([]int{0}, []relation.Interval{relation.Closed(10, 20)})
	got, ok := ix.Find(inner)
	if !ok || got.ID != e.ID {
		t.Fatalf("Find = %+v, %v", got, ok)
	}
	outer := region.MustNew([]int{0}, []relation.Interval{relation.Closed(10, 200)})
	if _, ok := ix.Find(outer); ok {
		t.Fatal("Find matched a rect the entry does not cover")
	}
	back, err := ix.Tuples(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 50 {
		t.Fatalf("Tuples = %d", len(back))
	}
	for i := range back {
		if back[i].ID != tuples[i].ID || back[i].Values[0] != tuples[i].Values[0] {
			t.Fatalf("tuple %d corrupted in round trip", i)
		}
	}
	s := ix.Stats()
	if s.Entries != 1 || s.TuplesStored != 50 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestInsertDeduplicatesCoveredRegions(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	big := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	e1, err := ix.Insert(big, mkTuples(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	small := region.MustNew([]int{0}, []relation.Interval{relation.Closed(40, 50)})
	e2, err := ix.Insert(small, mkTuples(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID != e1.ID {
		t.Fatal("covered region was not deduplicated")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestTopIn(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	tuples := []relation.Tuple{
		{ID: 1, Values: []float64{50, 5}},
		{ID: 2, Values: []float64{10, 9}},
		{ID: 3, Values: []float64{10, 1}},
		{ID: 4, Values: []float64{70, 2}},
		{ID: 5, Values: []float64{200, 2}}, // outside query rect below
	}
	e, err := ix.Insert(rect.Clone(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	q := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 80)})
	pred := relation.Predicate{}.WithInterval(1, relation.Closed(0, 8)) // y<=8 kills ID 2
	score := func(tu relation.Tuple) float64 { return tu.Values[0] }
	got, err := ix.TopIn(e.ID, q, pred, score, func(id int64) bool { return id == 4 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remaining: 1 (50), 3 (10) → sorted by x: 3, 1.
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 1 {
		t.Fatalf("TopIn = %+v", got)
	}
	lim, err := ix.TopIn(e.ID, q, relation.Predicate{}, score, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != 2 || lim[0].ID != 2 && lim[0].ID != 3 {
		t.Fatalf("limited TopIn = %+v", lim)
	}
}

func TestTopInTieBreaksByID(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	tuples := []relation.Tuple{
		{ID: 9, Values: []float64{10, 0}},
		{ID: 2, Values: []float64{10, 0}},
		{ID: 5, Values: []float64{10, 0}},
	}
	e, _ := ix.Insert(rect.Clone(), tuples)
	got, err := ix.TopIn(e.ID, rect, relation.Predicate{}, func(relation.Tuple) float64 { return 0 }, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 9 {
		t.Fatalf("tie break order = %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dense.log")
	store, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := schema(t)
	ix, err := Open(s, store)
	if err != nil {
		t.Fatal(err)
	}
	rect := region.MustNew([]int{0, 1}, []relation.Interval{
		relation.OpenLo(0, 100), relation.Closed(5, 10)})
	tuples := mkTuples(25, 4)
	e, err := ix.Insert(rect, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ix2, err := Open(s, store2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 1 {
		t.Fatalf("reopened Len = %d", ix2.Len())
	}
	got, ok := ix2.Find(region.MustNew([]int{0, 1}, []relation.Interval{
		relation.Closed(10, 20), relation.Closed(6, 7)}))
	if !ok || got.ID != e.ID {
		t.Fatalf("Find after reopen = %+v, %v", got, ok)
	}
	// Open flags must survive the round trip.
	if !got.Rect.Ivs[0].LoOpen || got.Rect.Ivs[0].HiOpen {
		t.Fatalf("interval flags lost: %v", got.Rect.Ivs[0])
	}
	back, err := ix2.Tuples(e.ID)
	if err != nil || len(back) != 25 {
		t.Fatalf("Tuples after reopen = %d, %v", len(back), err)
	}
	// A second insert must not collide with the recovered ID space.
	e2, err := ix2.Insert(region.MustNew([]int{0}, []relation.Interval{relation.Closed(500, 600)}), mkTuples(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID == e.ID {
		t.Fatal("ID collision after reopen")
	}
}

func TestOpenDropsEntriesWithMissingData(t *testing.T) {
	store := kvstore.NewMemory()
	s := schema(t)
	ix, _ := Open(s, store)
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 10)})
	e, err := ix.Insert(rect, mkTuples(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate partial loss: the tuple blob vanishes.
	if err := store.Delete([]byte{'t', '/', 0, 0, 0, 0, 0, 0, 0, byte(e.ID)}); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(s, store)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 0 {
		t.Fatalf("entry with missing data survived boot verification: %d", ix2.Len())
	}
}

func TestOpenDropsCorruptDirectory(t *testing.T) {
	store := kvstore.NewMemory()
	if err := store.Put([]byte("e/garbage"), []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	// A record of another codec version is dropped with its tuple blob.
	old := encodeEntry(Entry{ID: 3, Count: 1, Rect: region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 10)})})
	old[0] = codecVersion - 1
	if err := store.Put(entryKey(3), old); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(tuplesKey(3), wire.AppendTuples(nil, mkTuples(1, 3), 2)); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(schema(t), store)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatal("corrupt entry decoded")
	}
	if _, ok, _ := store.Get([]byte("e/garbage")); ok {
		t.Fatal("corrupt entry not removed from store")
	}
	if store.Len() != 0 {
		t.Fatalf("rejected records left %d keys in the store (orphaned tuple blob?)", store.Len())
	}
}

// TestFindMatchesBruteForce drives the spatial directory against the
// original O(entries) covering scan on random rectangles.
func TestFindMatchesBruteForce(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	r := rand.New(rand.NewSource(21))
	var inserted []Entry
	for i := 0; i < 120; i++ {
		var rect region.Rect
		switch i % 3 {
		case 0: // 1D on x
			lo := r.Float64() * 900
			rect = region.MustNew([]int{0}, []relation.Interval{relation.Closed(lo, lo+20+r.Float64()*80)})
		case 1: // 1D on y
			lo := r.Float64() * 900
			rect = region.MustNew([]int{1}, []relation.Interval{relation.OpenLo(lo, lo+20+r.Float64()*80)})
		default: // 2D
			lx, ly := r.Float64()*900, r.Float64()*900
			rect = region.MustNew([]int{0, 1}, []relation.Interval{
				relation.Closed(lx, lx+30+r.Float64()*100),
				relation.OpenHi(ly, ly+30+r.Float64()*100),
			})
		}
		e, err := ix.Insert(rect, mkTuples(1+r.Intn(8), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, e)
	}
	brute := func(q region.Rect) (Entry, bool) {
		best, found := Entry{}, false
		for _, e := range inserted {
			if e.Rect.Covers(q) && (!found || e.Count < best.Count) {
				best, found = e, true
			}
		}
		return best, found
	}
	for trial := 0; trial < 500; trial++ {
		var q region.Rect
		if trial%2 == 0 {
			lo := r.Float64() * 1000
			q = region.MustNew([]int{r.Intn(2)}, []relation.Interval{relation.Closed(lo, lo+r.Float64()*60)})
		} else {
			lx, ly := r.Float64()*1000, r.Float64()*1000
			q = region.MustNew([]int{0, 1}, []relation.Interval{
				relation.Closed(lx, lx+r.Float64()*60), relation.Closed(ly, ly+r.Float64()*60)})
		}
		want, wantOK := brute(q)
		got, gotOK := ix.Find(q)
		if gotOK != wantOK {
			t.Fatalf("trial %d: Find ok=%v, brute ok=%v for %v", trial, gotOK, wantOK, q)
		}
		// Insert dedupe means several entries can share a covering shape;
		// any entry with the minimal count is a correct answer.
		if gotOK && (got.Count != want.Count || !got.Rect.Covers(q)) {
			t.Fatalf("trial %d: Find=%+v want count %d covering %v", trial, got, want.Count, q)
		}
	}
}

// TestFindEmptyQueryRect preserves the degenerate-case contract: an empty
// rectangle is covered by every entry.
func TestFindEmptyQueryRect(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 10)})
	if _, err := ix.Insert(rect, mkTuples(4, 31)); err != nil {
		t.Fatal(err)
	}
	empty := region.MustNew([]int{0}, []relation.Interval{relation.OpenLo(5, 5)})
	if _, ok := ix.Find(empty); !ok {
		t.Fatal("empty query rect should hit any entry")
	}
}

// TestTopInByAttr checks both directions of the cached-ordering walk.
func TestTopInByAttr(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	tuples := []relation.Tuple{
		{ID: 1, Values: []float64{50, 5}},
		{ID: 2, Values: []float64{10, 9}},
		{ID: 3, Values: []float64{10, 1}},
		{ID: 4, Values: []float64{70, 2}},
	}
	e, err := ix.Insert(rect.Clone(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	asc, err := ix.TopInByAttr(e.ID, rect, relation.Predicate{}, 0, false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantAsc := []int64{2, 3, 1, 4} // x asc, ties by ID asc
	for i, w := range wantAsc {
		if asc[i].ID != w {
			t.Fatalf("asc[%d].ID = %d, want %d", i, asc[i].ID, w)
		}
	}
	desc, err := ix.TopInByAttr(e.ID, rect, relation.Predicate{}, 0, true, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 2 || desc[0].ID != 4 || desc[1].ID != 1 {
		t.Fatalf("desc = %+v", desc)
	}
	// Filtered + excluded walk.
	pred := relation.Predicate{}.WithInterval(1, relation.Closed(0, 8))
	got, err := ix.TopInByAttr(e.ID, rect, pred, 0, false, func(id int64) bool { return id == 3 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 4 {
		t.Fatalf("filtered TopInByAttr = %+v", got)
	}
}

// TestResidencyBudgetEviction forces a tiny budget and checks entries
// round-trip through the store after eviction, with stats moving.
func TestResidencyBudgetEviction(t *testing.T) {
	ix, err := Open(schema(t), kvstore.NewMemory(), WithResidentBytes(1200))
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 6; i++ {
		lo := float64(i * 10)
		rect := region.MustNew([]int{0}, []relation.Interval{relation.OpenHi(lo, lo+10)})
		ts := make([]relation.Tuple, 20)
		for j := range ts {
			ts[j] = relation.Tuple{ID: int64(i*100 + j), Values: []float64{lo + float64(j)*0.5, 0}}
		}
		e, err := ix.Insert(rect, ts)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	st := ix.Stats()
	if st.ResidentBytes > 1200 {
		t.Fatalf("resident bytes %d exceed budget", st.ResidentBytes)
	}
	if st.ResidentEvictions == 0 {
		t.Fatal("expected evictions under a 1200-byte budget")
	}
	// Every entry, resident or evicted, must still answer correctly.
	for i, e := range entries {
		q := region.MustNew([]int{0}, []relation.Interval{relation.Closed(float64(i*10), float64(i*10)+9)})
		got, err := ix.TopIn(e.ID, q, relation.Predicate{}, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 19 { // j=19 lands at lo+9.5, outside [lo, lo+9]
			t.Fatalf("entry %d: %d tuples after eviction round trip", i, len(got))
		}
		for j := 1; j < len(got); j++ {
			if got[j].ID <= got[j-1].ID {
				t.Fatalf("entry %d: tuples not ID-sorted", i)
			}
		}
	}
	if ix.Stats().ResidentLoads == 0 {
		t.Fatal("expected store loads after eviction")
	}
}

// TestResidencyDisabled checks that a negative budget serves correct
// results straight from the store.
func TestResidencyDisabled(t *testing.T) {
	ix, err := Open(schema(t), kvstore.NewMemory(), WithResidentBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	e, err := ix.Insert(rect, mkTuples(30, 9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.TopIn(e.ID, rect, relation.Predicate{}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("TopIn = %d tuples", len(got))
	}
	if st := ix.Stats(); st.ResidentEntries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("disabled residency retained entries: %+v", st)
	}
}

// TestOpenWarmsResidency verifies boot-time verification doubles as the
// initial resident set instead of decoding twice and discarding.
func TestOpenWarmsResidency(t *testing.T) {
	store := kvstore.NewMemory()
	ix, _ := Open(schema(t), store)
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	e, err := ix.Insert(rect, mkTuples(25, 10))
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(schema(t), store)
	if err != nil {
		t.Fatal(err)
	}
	st := ix2.Stats()
	if st.ResidentEntries != 1 || st.ResidentBytes == 0 {
		t.Fatalf("boot verification did not warm residency: %+v", st)
	}
	if st.ResidentLoads != 0 {
		t.Fatalf("boot warm counted as read-path loads: %+v", st)
	}
	if _, err := ix2.TopIn(e.ID, rect, relation.Predicate{}, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := ix2.Stats().ResidentLoads; got != 0 {
		t.Fatalf("resident TopIn hit the store: %d loads", got)
	}
}

// TestConcurrentReadersAndWriters hammers Find/TopIn/Insert from many
// goroutines; run with -race. Readers must observe consistent entries.
func TestConcurrentReadersAndWriters(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory(), WithResidentBytes(1<<16))
	// Seed a few entries so readers hit from the start.
	for i := 0; i < 4; i++ {
		lo := float64(i * 100)
		rect := region.MustNew([]int{0}, []relation.Interval{relation.OpenHi(lo, lo+100)})
		if _, err := ix.Insert(rect, mkTuples(50, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const (
		readers = 8
		writers = 2
		iters   = 300
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				lo := float64(r.Intn(4)*100) + r.Float64()*50
				q := region.MustNew([]int{0}, []relation.Interval{relation.Closed(lo, lo+10)})
				e, ok := ix.Find(q)
				if !ok {
					continue
				}
				if i%2 == 0 {
					if _, err := ix.TopIn(e.ID, q, relation.Predicate{}, nil, nil, 0); err != nil {
						errc <- err
						return
					}
				} else {
					if _, err := ix.TopInByAttr(e.ID, q, relation.Predicate{}, 1, r.Intn(2) == 0, nil, 0); err != nil {
						errc <- err
						return
					}
				}
			}
		}(int64(g))
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(1000 + seed))
			for i := 0; i < iters/10; i++ {
				lo := 400 + r.Float64()*500
				rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(lo, lo+5)})
				if _, err := ix.Insert(rect, mkTuples(10, seed*1000+int64(i))); err != nil {
					errc <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if ix.Len() == 0 || ix.Stats().Hits == 0 {
		t.Fatalf("concurrent run did no work: %+v", ix.Stats())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		// One width per tuple set: the codec checks it against the schema.
		attrs := make([]relation.Attribute, 1+r.Intn(5))
		for j := range attrs {
			attrs[j] = relation.Attribute{Name: fmt.Sprint("a", j), Kind: relation.Numeric, Max: 1}
		}
		s := relation.MustSchema(attrs...)
		n := r.Intn(40)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			vals := make([]float64, s.Len())
			for j := range vals {
				vals[j] = r.NormFloat64() * 1e6
			}
			ts[i] = relation.Tuple{ID: r.Int63(), Values: vals}
		}
		back, err := readBlob(wire.AppendTuples(nil, ts, s.Len()), s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(back) != len(ts) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(back), len(ts))
		}
		for i := range ts {
			if back[i].ID != ts[i].ID || len(back[i].Values) != len(ts[i].Values) {
				t.Fatalf("trial %d tuple %d mismatch", trial, i)
			}
			for j := range ts[i].Values {
				if back[i].Values[j] != ts[i].Values[j] {
					t.Fatalf("trial %d tuple %d value %d mismatch", trial, i, j)
				}
			}
		}
	}
}

func TestDecodeTuplesTruncated(t *testing.T) {
	s := schema(t)
	blob := wire.AppendTuples(nil, mkTuples(3, 8), s.Len())
	for cut := 0; cut < len(blob); cut += 3 {
		// Truncation anywhere, header or tuple array, must error.
		if _, err := readBlob(blob[:cut], s); err == nil {
			t.Fatalf("truncated blob (%d bytes) decoded without error", cut)
		}
	}
	if _, err := readBlob(nil, s); err == nil {
		t.Fatal("nil blob decoded")
	}
}

// TestScanInMatchesTopIn: the iterator yields exactly what the score-free
// TopIn materialises, in the same (ID) order, on both access paths —
// the wide sequential sweep and the narrow binary-searched one.
func TestScanInMatchesTopIn(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 1000)})
	var tuples []relation.Tuple
	for i := 0; i < 500; i++ {
		tuples = append(tuples, relation.Tuple{ID: int64(500 - i), Values: []float64{float64(i * 2), float64(i % 10)}})
	}
	e, err := ix.Insert(rect.Clone(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	pred := relation.Predicate{}.WithInterval(1, relation.Closed(0, 7))
	excl := func(id int64) bool { return id%17 == 0 }
	for _, q := range []region.Rect{
		region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 900)}),   // wide: sweep
		region.MustNew([]int{0}, []relation.Interval{relation.Closed(100, 140)}), // narrow: ordering
	} {
		want, err := ix.TopIn(e.ID, q, pred, nil, excl, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []relation.Tuple
		if err := ix.ScanIn(e.ID, q, pred, excl, func(tu relation.Tuple) bool {
			got = append(got, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ScanIn yielded %d tuples, TopIn %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("position %d: ScanIn %d, TopIn %d", i, got[i].ID, want[i].ID)
			}
		}
		if len(want) == 0 {
			t.Fatal("vacuous comparison")
		}
	}
}

// TestScanInEarlyStop: a false yield ends the walk immediately.
func TestScanInEarlyStop(t *testing.T) {
	ix, _ := Open(schema(t), kvstore.NewMemory())
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	var tuples []relation.Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, relation.Tuple{ID: int64(i), Values: []float64{float64(i), 0}})
	}
	e, _ := ix.Insert(rect.Clone(), tuples)
	n := 0
	if err := ix.ScanIn(e.ID, rect, relation.Predicate{}, nil, func(relation.Tuple) bool {
		n++
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("early stop yielded %d tuples, want 7", n)
	}
}

func TestWipeInvalidatesEverything(t *testing.T) {
	store := kvstore.NewMemory()
	ix, err := Open(schema(t), store)
	if err != nil {
		t.Fatal(err)
	}
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	e, err := ix.Insert(rect, mkTuples(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	rect2 := region.MustNew([]int{1}, []relation.Interval{relation.Closed(200, 300)})
	if _, err := ix.Insert(rect2, mkTuples(20, 2)); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 || store.Len() != 4 {
		t.Fatalf("pre-wipe: %d entries, %d store records", ix.Len(), store.Len())
	}

	if err := ix.Wipe(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Entries != 0 || st.TuplesStored != 0 || st.ResidentEntries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("wipe left residue: %+v", st)
	}
	if st.Wipes != 1 {
		t.Fatalf("wipes = %d, want 1", st.Wipes)
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d records after wipe", store.Len())
	}
	inner := region.MustNew([]int{0}, []relation.Interval{relation.Closed(10, 20)})
	if _, ok := ix.Find(inner); ok {
		t.Fatal("Find matched a wiped entry")
	}
	// A stale entry ID held across the wipe cannot read ghost data.
	if _, err := ix.TopIn(e.ID, rect, relation.Predicate{}, nil, nil, 0); err == nil {
		t.Fatal("TopIn on a wiped entry id succeeded")
	}

	// The index keeps working: a fresh post-wipe crawl is served, and
	// reopening from the wiped store yields an empty index.
	e2, err := ix.Insert(rect, mkTuples(30, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID <= e.ID {
		t.Fatalf("entry id %d not advanced past pre-wipe id %d", e2.ID, e.ID)
	}
	got, err := ix.TopIn(e2.ID, rect, relation.Predicate{}, nil, nil, 0)
	if err != nil || len(got) != 30 {
		t.Fatalf("post-wipe TopIn = %d tuples, err %v", len(got), err)
	}
	ix2, err := Open(schema(t), cloneStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 1 {
		t.Fatalf("reopened index has %d entries, want the 1 post-wipe entry", ix2.Len())
	}
}

// cloneStore copies a memory store so a "restart" cannot share state.
func cloneStore(t *testing.T, s kvstore.Store) kvstore.Store {
	t.Helper()
	out := kvstore.NewMemory()
	err := s.Range(func(k, v []byte) bool {
		if err := out.Put(k, v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWipeRegionEvictsOnlyIntersecting: a region-scoped wipe drops the
// entries intersecting the rect — memory, residency and store — while
// disjoint entries keep serving, and a restart sees exactly the
// survivors.
func TestWipeRegionEvictsOnlyIntersecting(t *testing.T) {
	store := kvstore.NewMemory()
	ix, err := Open(schema(t), store)
	if err != nil {
		t.Fatal(err)
	}
	mkIn := func(n int, seed int64, lo, hi float64) []relation.Tuple {
		r := rand.New(rand.NewSource(seed))
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{ID: int64(seed*1000) + int64(i+1),
				Values: []float64{lo + r.Float64()*(hi-lo), r.Float64() * 100}}
		}
		return out
	}
	hot := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 100)})
	cold := region.MustNew([]int{0}, []relation.Interval{relation.Closed(500, 600)})
	straddle := region.MustNew([]int{0}, []relation.Interval{relation.Closed(90, 200)})
	eh, err := ix.Insert(hot, mkIn(50, 1, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	ec, err := ix.Insert(cold, mkIn(20, 2, 500, 600))
	if err != nil {
		t.Fatal(err)
	}
	es, err := ix.Insert(straddle, mkIn(10, 3, 90, 200))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the residency for every entry so the wipe must purge it.
	for _, e := range []Entry{eh, ec, es} {
		if _, err := ix.TopIn(e.ID, e.Rect, relation.Predicate{}, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	bump := region.MustNew([]int{0}, []relation.Interval{relation.Closed(50, 120)})
	if err := ix.WipeRegion(bump); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.RegionWipes != 1 || st.Wipes != 0 {
		t.Fatalf("wipe counters = region %d full %d, want 1 / 0", st.RegionWipes, st.Wipes)
	}
	if st.Entries != 1 || st.TuplesStored != 20 {
		t.Fatalf("post-wipe stats = %+v, want only the disjoint entry", st)
	}
	if st.ResidentEntries != 1 {
		t.Fatalf("resident entries = %d, want only the survivor's", st.ResidentEntries)
	}
	// Intersecting entries — including the straddler — are gone for both
	// lookup and direct reads; the disjoint one still serves.
	for _, e := range []Entry{eh, es} {
		if _, ok := ix.Find(e.Rect); ok {
			t.Fatalf("entry %d intersecting the bumped rect still found", e.ID)
		}
		if _, err := ix.TopIn(e.ID, e.Rect, relation.Predicate{}, nil, nil, 0); err == nil {
			t.Fatalf("TopIn on wiped entry %d succeeded", e.ID)
		}
	}
	got, err := ix.TopIn(ec.ID, cold, relation.Predicate{}, nil, nil, 0)
	if err != nil || len(got) != 20 {
		t.Fatalf("disjoint entry unserved after region wipe: %d tuples, err %v", len(got), err)
	}
	// The store dropped exactly the evicted entries' records.
	ix2, err := Open(schema(t), cloneStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 1 {
		t.Fatalf("reopened index has %d entries, want the 1 survivor", ix2.Len())
	}
	if _, ok := ix2.Find(cold); !ok {
		t.Fatal("survivor entry lost across restart")
	}
}
