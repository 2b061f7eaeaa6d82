package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// scanBest is the reference answer to "which unproduced tuple is the best
// known candidate": a linear (score, ID) scan over every tuple the stream
// has seen, minus the ones it produced. byID resolves seen IDs to tuples.
func scanBest(st *Stream, byID map[int64]relation.Tuple) (relation.Tuple, float64, bool) {
	produced := make(map[int64]bool, len(st.produced))
	for _, t := range st.produced {
		produced[t.ID] = true
	}
	var (
		best  relation.Tuple
		score float64
		found bool
	)
	for id := range st.seen {
		if produced[id] {
			continue
		}
		t := byID[id]
		s := st.scorer.Score(t)
		if !found || s < score || (s == score && t.ID < best.ID) {
			best, score, found = t, s, true
		}
	}
	return best, score, found
}

// checkedImpl runs check after every successful next of the wrapped
// engine, i.e. right before the stream produces its answer, and turns a
// failed check into the get-next's error.
type checkedImpl struct {
	inner nextImpl
	check func(t relation.Tuple, ok bool) error
}

func (c checkedImpl) next(ctx context.Context) (relation.Tuple, bool, error) {
	t, ok, err := c.inner.next(ctx)
	if err == nil {
		err = c.check(t, ok)
	}
	return t, ok, err
}

// instrument wraps a stream's engine (and MD-TA's sorted-access streams)
// so that before every produce the candidate order is compared with
// scanBest.
func instrument(st *Stream, byID map[int64]relation.Tuple) {
	if ta, ok := st.impl.(*taEngine); ok {
		for _, sub := range ta.subs {
			instrument(sub, byID)
		}
	}
	st.impl = checkedImpl{inner: st.impl, check: func(t relation.Tuple, ok bool) error {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("produce #%d: %s", len(st.produced)+1, fmt.Sprintf(format, args...))
		}
		if n := len(st.seen) - len(st.produced); len(st.cands) != n {
			return fail("%d candidates, want %d seen and unproduced", len(st.cands), n)
		}
		best, score, have := st.bestCandidate()
		want, wantScore, wantHave := scanBest(st, byID)
		switch {
		case have != wantHave:
			return fail("bestCandidate found=%v, scan found=%v", have, wantHave)
		case have && (best.ID != want.ID || score != wantScore):
			return fail("bestCandidate tuple %d score %v, scan tuple %d score %v", best.ID, score, want.ID, wantScore)
		case ok && (!have || t.ID != best.ID):
			return fail("engine answered tuple %d, best candidate is %d (found=%v)", t.ID, best.ID, have)
		case !ok && have:
			return fail("engine reported exhaustion with candidate %d left", best.ID)
		}
		return nil
	}}
}

// assertTieRule checks drained rows against BruteForceTop without fixing
// the order inside a group of equal scores: the score sequences must be
// identical, every equal-score group that ends inside the page must have
// the oracle's ID set, and a group the page cuts off may hold any tuples of
// that score. exhausted says the stream reported the end of its results
// after got.
func assertTieRule(t *testing.T, label string, rel *relation.Relation, q Query, sc *ranking.Scorer, got []relation.Tuple, exhausted bool) {
	t.Helper()
	want := BruteForceTop(rel, q.Pred, sc, len(got)+1)
	if len(got) > len(want) || (exhausted && len(want) > len(got)) {
		t.Fatalf("%s: %d rows (exhausted=%v), oracle has %d matches within %d", label, len(got), exhausted, len(want), len(got)+1)
	}
	for i := range got {
		if !q.Pred.Match(got[i]) {
			t.Fatalf("%s: row %d: tuple %d does not match the filter", label, i, got[i].ID)
		}
		if gs, ws := sc.Score(got[i]), sc.Score(want[i]); gs != ws {
			t.Fatalf("%s: row %d: tuple %d scores %v, oracle row is tuple %d scoring %v",
				label, i, got[i].ID, gs, want[i].ID, ws)
		}
	}
	for lo := 0; lo < len(got); {
		s := sc.Score(got[lo])
		hi := lo
		for hi < len(got) && sc.Score(got[hi]) == s {
			hi++
		}
		cut := hi == len(got) && len(want) > hi && sc.Score(want[hi]) == s
		if !cut {
			ids := map[int64]bool{}
			for _, tp := range want[lo:hi] {
				ids[tp.ID] = true
			}
			for _, tp := range got[lo:hi] {
				if !ids[tp.ID] {
					t.Fatalf("%s: rows %d–%d (score %v): tuple %d is not in the oracle's group", label, lo, hi-1, s, tp.ID)
				}
				delete(ids, tp.ID)
			}
		}
		lo = hi
	}
}

// coarseCatalog is a small catalog whose ranking attributes a, b and c
// take only a few levels, so many tuples share a score under any ranking.
// Their domain is [0, 8], so normalised values are multiples of 1/8 and
// scores under small integer weights are exact: ties are true ties, not
// rounding accidents.
// The fine attribute d keeps every tuple reachable through the top-k
// interface (a crawl can split on it), and the system ranking is
// arbitrary.
func coarseCatalog(n, levels int, seed int64) (*datagen.Catalog, map[int64]relation.Tuple) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Numeric, Min: 0, Max: 8, Resolution: 1},
		relation.Attribute{Name: "b", Kind: relation.Numeric, Min: 0, Max: 8, Resolution: 1},
		relation.Attribute{Name: "c", Kind: relation.Numeric, Min: 0, Max: 8, Resolution: 1},
		relation.Attribute{Name: "d", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
	)
	r := rand.New(rand.NewSource(seed))
	rel := relation.NewRelation("coarse", schema)
	sys := map[int64]float64{}
	byID := map[int64]relation.Tuple{}
	for i := 0; i < n; i++ {
		t := relation.Tuple{ID: int64(i + 1), Values: []float64{
			float64(r.Intn(levels)), float64(r.Intn(levels)), float64(r.Intn(levels)),
			float64(r.Intn(100000)) / 100,
		}}
		rel.MustAppend(t)
		sys[t.ID] = r.Float64()
		byID[t.ID] = t
	}
	return &datagen.Catalog{Rel: rel, Name: "coarse", Rank: func(t relation.Tuple) float64 { return sys[t.ID] }}, byID
}

// TestBestCandidateMatchesScan drains randomized tie-heavy streams with
// every algorithm, sequentially and in parallel, at several page sizes,
// and checks the candidate heap against a linear scan before every
// produce; the drained rows must match BruteForceTop.
func TestBestCandidateMatchesScan(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(56))
	rankings := []string{"a", "-a", "a + b", "a - b", "-a - b", "a + 2*b - c", "-a + b + c", "2*a + b"}
	for trial := 0; trial < 12; trial++ {
		n := 40 + r.Intn(110)
		cat, byID := coarseCatalog(n, 2+r.Intn(4), int64(trial))
		var pred relation.Predicate
		if r.Intn(2) == 0 {
			lo := float64(r.Intn(2))
			pred = pred.WithInterval(0, relation.Closed(lo, lo+float64(1+r.Intn(3))))
		}
		rank := rankings[r.Intn(len(rankings))]
		q := Query{Pred: pred, Rank: ranking.MustParse(rank)}
		k := 3 + r.Intn(6)
		page := []int{1, 3, 7}[r.Intn(3)]
		for _, algo := range allAlgorithms {
			for _, seq := range []bool{false, true} {
				label := fmt.Sprintf("trial %d (n=%d k=%d %q page %d) %s seq=%v", trial, n, k, rank, page, algo, seq)
				opt := Options{Algorithm: algo, SequentialOnly: seq, Normalization: normOf(cat)}
				if trial%3 == 0 {
					// A session cache warmed by an earlier query seeds
					// candidates before the first web query.
					warm := &fakeCache{}
					for i := 0; i < 10; i++ {
						warm.CacheTuples(cat.Rel.Tuple(r.Intn(n)))
					}
					opt.Cache = warm
				}
				rr, err := New(newDB(t, cat, k), opt)
				if err != nil {
					t.Fatal(err)
				}
				st, err := rr.Rerank(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				instrument(st, byID)
				var got []relation.Tuple
				for {
					rows, err := st.NextN(ctx, page)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got = append(got, rows...)
					if len(rows) < page {
						break
					}
				}
				assertTieRule(t, label, cat.Rel, q, st.Scorer(), got, true)
			}
		}
	}
}

// TestBoundaryFiltersMatchBruteForce filters on catalog values that do not
// survive Denormalize(Normalize(v)) under the discovered normalisation and
// ranks by the filtered attribute, so the first rows sit exactly on the
// filter's bound. A query bound moved one ulp inward would skip them.
func TestBoundaryFiltersMatchBruteForce(t *testing.T) {
	ctx := context.Background()
	type probe struct {
		cat   *datagen.Catalog
		attrs []string
	}
	for _, p := range []probe{
		{datagen.BlueNile(4000, 7), []string{"price", "carat"}},
		{datagen.Zillow(5000, 7), []string{"price", "sqft", "lot"}},
	} {
		db := newDB(t, p.cat, 50)
		discover, err := New(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		norm, err := discover.Normalization(ctx)
		if err != nil {
			t.Fatal(err)
		}
		schema := p.cat.Rel.Schema()
		for _, name := range p.attrs {
			a, _ := schema.Lookup(name)
			// Values the round trip moves up are the lower bounds it
			// breaks; values it moves down are the upper bounds.
			var ups, downs []float64
			seen := map[float64]bool{}
			for i := 0; i < p.cat.Rel.Len(); i++ {
				v := p.cat.Rel.Tuple(i).Values[a]
				if seen[v] {
					continue
				}
				seen[v] = true
				switch back := norm.Denormalize(a, norm.Normalize(a, v)); {
				case back > v:
					ups = append(ups, v)
				case back < v:
					downs = append(downs, v)
				}
			}
			if len(ups) == 0 {
				t.Fatalf("%s %s: no lower bound that fails the round trip", p.cat.Name, name)
			}
			lo := ups[len(ups)/2]
			filters := []relation.Interval{{Lo: lo, Hi: math.Inf(1)}}
			if len(downs) > 0 {
				// Both ends at once, and the upper end alone.
				hi := downs[len(downs)/2]
				if lo > hi {
					lo, hi = hi, lo
				}
				filters = append(filters, relation.Interval{Lo: math.Inf(-1), Hi: hi}, relation.Closed(lo, hi))
			}
			if name == "carat" {
				filters = append(filters, relation.Interval{Lo: 0.6, Hi: math.Inf(1)})
			}
			for _, iv := range filters {
				pred := relation.Predicate{}.WithInterval(a, iv)
				for _, rank := range []string{name, "-" + name} {
					q := Query{Pred: pred, Rank: ranking.MustParse(rank)}
					for _, algo := range allAlgorithms {
						label := fmt.Sprintf("%s %s in %v ranked by %s, %s", p.cat.Name, name, iv, rank, algo)
						rr, err := New(db, Options{Algorithm: algo, Normalization: &norm})
						if err != nil {
							t.Fatal(err)
						}
						st, err := rr.Rerank(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := st.NextN(ctx, 10)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						assertTieRule(t, label, p.cat.Rel, q, st.Scorer(), got, len(got) < 10)
					}
				}
			}
		}
	}
}
