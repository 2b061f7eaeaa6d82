package hidden

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// searchFixture is one catalog and system ranking, with the reference
// (score, ID) order and each attribute's distinct values to draw bounds from.
type searchFixture struct {
	name  string
	rel   *relation.Relation
	rank  func(relation.Tuple) float64
	order []int
	vals  [][]float64

	mu     sync.Mutex
	locals map[int]*Local
}

func newSearchFixture(name string, rel *relation.Relation, rank func(relation.Tuple) float64) *searchFixture {
	fx := &searchFixture{name: name, rel: rel, rank: rank, locals: map[int]*Local{}}
	fx.order = make([]int, rel.Len())
	for i := range fx.order {
		fx.order[i] = i
	}
	sort.SliceStable(fx.order, func(a, b int) bool {
		ta, tb := rel.Tuple(fx.order[a]), rel.Tuple(fx.order[b])
		if sa, sb := rank(ta), rank(tb); sa != sb {
			return sa < sb
		}
		return ta.ID < tb.ID
	})
	fx.vals = make([][]float64, rel.Schema().Len())
	for a := range fx.vals {
		for i := 0; i < rel.Len(); i++ {
			fx.vals[a] = append(fx.vals[a], rel.Tuple(i).Values[a])
		}
		slices.Sort(fx.vals[a])
		fx.vals[a] = slices.Compact(fx.vals[a])
	}
	return fx
}

// local returns the fixture's database at system-k k, built on first use.
func (fx *searchFixture) local(t testing.TB, k int) *Local {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	if l, ok := fx.locals[k]; ok {
		return l
	}
	l, err := NewLocal(fx.name, fx.rel, k, fx.rank)
	if err != nil {
		t.Fatal(err)
	}
	fx.locals[k] = l
	return l
}

// referenceSearch is the oracle for Local.Search: a scan of every tuple in
// (system score, ID) order that keeps the first k matches of p and sets
// Overflow iff one more matches.
func (fx *searchFixture) referenceSearch(k int, p relation.Predicate) Result {
	var res Result
	if p.Unsatisfiable() {
		return res
	}
	for _, pos := range fx.order {
		t := fx.rel.Tuple(pos)
		if !p.Match(t) {
			continue
		}
		if len(res.Tuples) == k {
			res.Overflow = true
			break
		}
		res.Tuples = append(res.Tuples, t)
	}
	return res
}

// reversed copies rel with its tuples in reverse insertion order, so that
// position order and ID order disagree.
func reversed(rel *relation.Relation) *relation.Relation {
	out := relation.NewRelation(rel.Name(), rel.Schema())
	for i := rel.Len() - 1; i >= 0; i-- {
		out.MustAppend(rel.Tuple(i))
	}
	return out
}

// searchFixtures are the catalogs the differential test and the fuzz target
// compare on: the real system rankings, and coarse ones with large tie
// groups (over a reversed relation) that only the ID tie-break orders.
var searchFixtures = sync.OnceValue(func() []*searchFixture {
	bn := datagen.BlueNile(1500, 11)
	zl := datagen.Zillow(1500, 12)
	coarse := func(rank func(relation.Tuple) float64) func(relation.Tuple) float64 {
		return func(t relation.Tuple) float64 { return math.Floor(rank(t) * 8) }
	}
	return []*searchFixture{
		newSearchFixture("bluenile", bn.Rel, bn.Rank),
		newSearchFixture("zillow", zl.Rel, zl.Rank),
		newSearchFixture("bluenile-ties", reversed(bn.Rel), coarse(bn.Rank)),
		newSearchFixture("zillow-ties", reversed(zl.Rel), coarse(zl.Rank)),
	}
})

// decodeSearch turns fuzz bytes into a fixture, a system-k in [1, 60] and a
// predicate. Each further 4-byte group adds one condition: an interval whose
// ends are values of the catalog (or infinite), open or closed, possibly a
// point or empty; or a set of up to three category codes, possibly empty. A
// group's high attribute bit swaps the kinds, putting an interval on a
// categorical attribute or a category set on a numeric one.
func decodeSearch(data []byte) (fx *searchFixture, k int, p relation.Predicate) {
	fxs := searchFixtures()
	for len(data) < 2 {
		data = append(data, 0)
	}
	fx, k, data = fxs[int(data[0])%len(fxs)], 1+int(data[1])%60, data[2:]
	schema := fx.rel.Schema()
	for ; len(data) >= 4; data = data[4:] {
		g := data[:4]
		attr := int(g[0]&0x7f) % schema.Len()
		categorical := schema.Attr(attr).Kind == relation.Categorical
		if g[0]&0x80 != 0 {
			categorical = !categorical
		}
		if categorical {
			m := 32
			if a := schema.Attr(attr); a.Kind == relation.Categorical {
				m = len(a.Categories)
			}
			cats := []int{int(g[1]) % m}
			if g[3]&1 != 0 {
				cats = append(cats, int(g[2])%m)
			}
			if g[3]&2 != 0 {
				cats = append(cats, int(g[3]>>2)%m)
			}
			if g[3]&0xf0 == 0xf0 {
				cats = nil
			}
			p = p.WithCategories(attr, cats)
			continue
		}
		vals := fx.vals[attr]
		pick := func(b byte) float64 { return vals[int(b)*len(vals)/256] }
		iv := relation.Interval{Lo: pick(g[1]), Hi: pick(g[2]), LoOpen: g[3]&1 != 0, HiOpen: g[3]&2 != 0}
		if iv.Lo > iv.Hi && g[3]&32 == 0 {
			iv.Lo, iv.Hi = iv.Hi, iv.Lo
		}
		if g[3]&4 != 0 {
			iv.Lo = math.Inf(-1)
		}
		if g[3]&8 != 0 {
			iv.Hi = math.Inf(1)
		}
		if g[3]&16 != 0 {
			iv.Hi = iv.Lo
		}
		p = p.WithInterval(attr, iv)
	}
	return fx, k, p
}

// checkSearch fails t unless Search and the reference scan agree tuple for
// tuple, in order, with the same Overflow.
func checkSearch(t *testing.T, fx *searchFixture, k int, p relation.Predicate) {
	t.Helper()
	got, err := fx.local(t, k).Search(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := fx.referenceSearch(k, p)
	same := got.Overflow == want.Overflow && !got.Degraded && len(got.Tuples) == len(want.Tuples)
	for i := 0; same && i < len(got.Tuples); i++ {
		same = got.Tuples[i].ID == want.Tuples[i].ID
	}
	if !same {
		ids := func(r Result) []int64 {
			out := make([]int64, len(r.Tuples))
			for i, tu := range r.Tuples {
				out[i] = tu.ID
			}
			return out
		}
		t.Fatalf("%s k=%d %s:\n got overflow=%v %v\nwant overflow=%v %v",
			fx.name, k, p.Describe(fx.rel.Schema()), got.Overflow, ids(got), want.Overflow, ids(want))
	}
}

// TestSearchMatchesReferenceScan compares Search with the reference scan on
// random predicates from decodeSearch, and checks that both the indexed
// path and the scan fallback are exercised.
func TestSearchMatchesReferenceScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var indexed, scanned int
	for i := 0; i < 6000; i++ {
		data := make([]byte, 2+4*r.Intn(5))
		r.Read(data)
		fx, k, p := decodeSearch(data)
		checkSearch(t, fx, k, p)
		if p.Unsatisfiable() {
			continue
		}
		if _, ok := fx.local(t, k).candidates(p); ok {
			indexed++
		} else {
			scanned++
		}
	}
	t.Logf("indexed %d, scanned %d", indexed, scanned)
	if indexed < 500 || scanned < 500 {
		t.Fatalf("indexed %d, scanned %d satisfiable predicates: want both paths taken at least 500 times", indexed, scanned)
	}
}

// FuzzLocalSearch checks Search against the reference scan on predicates
// decoded by decodeSearch. Its seed corpus is in testdata/fuzz.
func FuzzLocalSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fx, k, p := decodeSearch(data)
		checkSearch(t, fx, k, p)
	})
}
