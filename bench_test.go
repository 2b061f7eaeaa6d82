// Benchmarks regenerating every figure and demonstration scenario of the
// QR2 paper (quick-size catalogs; run cmd/qr2bench for full-size tables),
// plus micro-benchmarks of the substrates. Custom metrics report the
// paper's headline quantity — queries issued to the web database — next to
// the usual ns/op.
package repro_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/parallel"
	"repro/internal/qcache"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/session"
)

// benchExperiment reruns one experiment per iteration and reports the sum
// of an integer column as the headline metric.
func benchExperiment(b *testing.B, id string, col int, unit string) {
	b.Helper()
	ctx := context.Background()
	var metric float64
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunner(experiments.Config{Quick: true, TopH: 5})
		tab, err := runner.Run(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		metric = 0
		for _, row := range tab.Rows {
			if col < len(row) {
				if v, err := strconv.Atoi(row[col]); err == nil {
					metric += float64(v)
				}
			}
		}
	}
	b.ReportMetric(metric, unit)
}

// BenchmarkFig2a_Parallel3D regenerates Fig 2(a): per-iteration parallel
// query counts for a 3D MD-RERANK search on Blue Nile.
func BenchmarkFig2a_Parallel3D(b *testing.B) { benchExperiment(b, "F2a", 1, "wdbqueries") }

// BenchmarkFig2b_Parallel2D regenerates Fig 2(b): the 2D variant.
func BenchmarkFig2b_Parallel2D(b *testing.B) { benchExperiment(b, "F2b", 1, "wdbqueries") }

// BenchmarkFig4_StatsPanel regenerates the Fig 4 statistics panel (query
// cost and processing time of one reranked Zillow query).
func BenchmarkFig4_StatsPanel(b *testing.B) {
	ctx := context.Background()
	var queries float64
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunner(experiments.Config{Quick: true, TopH: 5})
		tab, err := runner.Run(ctx, "F4")
		if err != nil {
			b.Fatal(err)
		}
		if v, err := strconv.Atoi(tab.Rows[0][1]); err == nil {
			queries = float64(v)
		}
	}
	b.ReportMetric(queries, "wdbqueries")
}

// BenchmarkScenario1D regenerates §III-B "1D": three algorithms across
// ascending/descending rankings on both catalogs.
func BenchmarkScenario1D(b *testing.B) { benchExperiment(b, "S1", 5, "wdbqueries") }

// BenchmarkScenarioMD regenerates §III-B "MD": four algorithms across
// weight-sign combinations in 2D and 3D.
func BenchmarkScenarioMD(b *testing.B) { benchExperiment(b, "S2", 5, "wdbqueries") }

// BenchmarkScenarioIndexing regenerates §III-B "On-the-fly indexing": the
// amortisation sequence (metric: cumulative RERANK queries).
func BenchmarkScenarioIndexing(b *testing.B) { benchExperiment(b, "S3", 2, "wdbqueries") }

// BenchmarkScenarioBestWorst regenerates §III-B "Best vs worst cases".
func BenchmarkScenarioBestWorst(b *testing.B) { benchExperiment(b, "S4", 4, "wdbqueries") }

// BenchmarkScenarioConcurrentUsers regenerates S5: concurrent users over
// the shared answer cache (metric: cached-run web-DB queries).
func BenchmarkScenarioConcurrentUsers(b *testing.B) { benchExperiment(b, "S5", 2, "wdbqueries") }

// BenchmarkScenarioPooledCache regenerates S6: the process-wide answer
// cache pool (cross-source borrowing) and the crawl refill.
func BenchmarkScenarioPooledCache(b *testing.B) { benchExperiment(b, "S6", 1, "wdbqueries") }

// BenchmarkAblationParallel regenerates A1: parallel vs sequential.
func BenchmarkAblationParallel(b *testing.B) { benchExperiment(b, "A1", 3, "wdbqueries") }

// BenchmarkAblationDenseThreshold regenerates A2: the threshold sweep.
func BenchmarkAblationDenseThreshold(b *testing.B) { benchExperiment(b, "A2", 1, "wdbqueries") }

// BenchmarkAblationTies regenerates A3: tie-group mass vs crawling cost.
func BenchmarkAblationTies(b *testing.B) { benchExperiment(b, "A3", 2, "wdbqueries") }

// BenchmarkAblationSessionCache regenerates A4: the user-level cache.
func BenchmarkAblationSessionCache(b *testing.B) { benchExperiment(b, "A4", 2, "wdbqueries") }

// BenchmarkSweepSystemK regenerates A5: query cost vs system-k.
func BenchmarkSweepSystemK(b *testing.B) { benchExperiment(b, "A5", 3, "wdbqueries") }

// BenchmarkSweepGetNext regenerates A6: per-page get-next cost.
func BenchmarkSweepGetNext(b *testing.B) { benchExperiment(b, "A6", 3, "wdbqueries") }

// --- substrate micro-benchmarks ---

// BenchmarkHiddenSearch measures one top-k query against the simulator, on
// the query shapes the rerank engine sends: a selective 2D leaf that
// underflows, a broad range that overflows, an unfiltered query, and a
// categorical filter that underflows. Each shape's overflow flag is checked,
// so a catalog change cannot silently turn one into another.
func BenchmarkHiddenSearch(b *testing.B) {
	cat := datagen.BlueNile(20000, 1)
	db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank)
	if err != nil {
		b.Fatal(err)
	}
	s := cat.Rel.Schema()
	price, _ := s.Lookup("price")
	carat, _ := s.Lookup("carat")
	shape, _ := s.Lookup("shape")
	clarity, _ := s.Lookup("clarity")
	for _, bc := range []struct {
		name     string
		pred     relation.Predicate
		overflow bool
	}{
		{"leaf2d", relation.Predicate{}.
			WithInterval(price, relation.Closed(1000, 1200)).
			WithInterval(carat, relation.OpenLo(0.7, 0.8)), false},
		{"broad", relation.Predicate{}.WithInterval(price, relation.Closed(1000, 5000)), true},
		{"unfiltered", relation.Predicate{}, true},
		{"categorical", relation.Predicate{}.
			WithCategories(shape, []int{3}).
			WithCategories(clarity, []int{0, 1}), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				res, err := db.Search(ctx, bc.pred)
				if err != nil {
					b.Fatal(err)
				}
				if res.Overflow != bc.overflow {
					b.Fatalf("overflow = %v, want %v", res.Overflow, bc.overflow)
				}
			}
		})
	}
}

// BenchmarkNewLocal measures building the simulator over a 20 000-tuple
// catalog: the system-rank order and the per-attribute value index.
func BenchmarkNewLocal(b *testing.B) {
	cat := datagen.BlueNile(20000, 1)
	for i := 0; i < b.N; i++ {
		if _, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetNext measures one get-next operation per algorithm on a
// fresh stream (top-1 of a filtered MD query).
func BenchmarkGetNext(b *testing.B) {
	cat := datagen.BlueNile(5000, 2)
	norm := ranking.FromSchema(cat.Rel.Schema())
	for _, algo := range []core.Algorithm{core.Baseline, core.Binary, core.Rerank, core.TA} {
		b.Run(string(algo), func(b *testing.B) {
			ctx := context.Background()
			var queries int64
			for i := 0; i < b.N; i++ {
				db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank)
				if err != nil {
					b.Fatal(err)
				}
				rr, err := core.New(db, core.Options{Algorithm: algo, Normalization: &norm})
				if err != nil {
					b.Fatal(err)
				}
				st, err := rr.Rerank(ctx, core.Query{Rank: ranking.MustParse("price - 0.5*carat")})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := st.Next(ctx); err != nil {
					b.Fatal(err)
				}
				queries = st.TotalStats().Queries
			}
			b.ReportMetric(float64(queries), "wdbqueries")
		})
	}
}

// BenchmarkWarmPage measures the engine's share of a request that needs
// no web query: a fresh stream over a qcache-fronted simulator (Blue Nile,
// system-k 50) whose answers are already cached, with a session cache,
// producing one 20-row page. Two pages warm the answer cache and the
// session first. Allocations are reported next to the time, and
// wdbqueries/op shows that the page stays off the web database.
func BenchmarkWarmPage(b *testing.B) {
	cat := datagen.BlueNile(20000, 7)
	price, _ := cat.Rel.Schema().Lookup("price")
	q := core.Query{
		Pred: relation.Predicate{}.WithInterval(price, relation.Closed(1000, 8000)),
		Rank: ranking.MustParse("price - 0.1*carat - 0.5*depth"),
	}
	for _, algo := range []core.Algorithm{core.Baseline, core.Binary, core.Rerank, core.TA} {
		b.Run(string(algo), func(b *testing.B) {
			ctx := context.Background()
			db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank)
			if err != nil {
				b.Fatal(err)
			}
			c, err := qcache.New(db, qcache.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sess, err := session.NewManager(0, 0).New()
			if err != nil {
				b.Fatal(err)
			}
			rr, err := core.New(c, core.Options{Algorithm: algo, Cache: sess.Scoped(cat.Name)})
			if err != nil {
				b.Fatal(err)
			}
			page := func() {
				st, err := rr.Rerank(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := st.NextN(ctx, 20)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 20 {
					b.Fatalf("page of %d rows, want 20", len(rows))
				}
			}
			page()
			page()
			before := db.QueryCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page()
			}
			b.StopTimer()
			b.ReportMetric(float64(db.QueryCount()-before)/float64(b.N), "wdbqueries/op")
		})
	}
}

// BenchmarkQCacheHitPath compares one top-k search against a simulated web
// database with a 200µs round trip, uncached vs through a warm answer
// cache. The cached sub-benchmark must come in far under the round trip:
// the hit path never touches the web database.
func BenchmarkQCacheHitPath(b *testing.B) {
	cat := datagen.Zillow(10000, 3)
	idx, _ := cat.Rel.Schema().Lookup("price")
	pred := relation.Predicate{}.WithInterval(idx, relation.Closed(100000, 300000))
	ctx := context.Background()
	const roundTrip = 200 * time.Microsecond
	newDB := func(b *testing.B) *hidden.Local {
		b.Helper()
		db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank, hidden.WithLatency(roundTrip))
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("uncached", func(b *testing.B) {
		db := newDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Search(ctx, pred); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.QueryCount())/float64(b.N), "wdbqueries/op")
	})
	b.Run("cached", func(b *testing.B) {
		db := newDB(b)
		c, err := qcache.New(db, qcache.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Search(ctx, pred); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Search(ctx, pred); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.QueryCount())/float64(b.N), "wdbqueries/op")
	})
}

// BenchmarkQCacheCoalesce measures contended identical searches: every
// goroutine asks the same question at once and the web database answers
// it exactly once, however high the parallelism.
func BenchmarkQCacheCoalesce(b *testing.B) {
	cat := datagen.Zillow(10000, 3)
	db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank, hidden.WithLatency(100*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	c, err := qcache.New(db, qcache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	idx, _ := cat.Rel.Schema().Lookup("price")
	pred := relation.Predicate{}.WithInterval(idx, relation.Closed(100000, 300000))
	ctx := context.Background()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Search(ctx, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(db.QueryCount()), "wdbqueries")
}

// BenchmarkParallelBatch measures an 8-query parallel batch end to end.
func BenchmarkParallelBatch(b *testing.B) {
	cat := datagen.Zillow(10000, 3)
	db, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank)
	if err != nil {
		b.Fatal(err)
	}
	ex := parallel.New(db)
	idx, _ := cat.Rel.Schema().Lookup("price")
	preds := make([]relation.Predicate, 8)
	for i := range preds {
		lo := 100000 + float64(i)*50000
		preds[i] = relation.Predicate{}.WithInterval(idx, relation.Closed(lo, lo+100000))
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SearchBatch(ctx, preds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVStorePut measures durable appends to the log-structured store.
func BenchmarkKVStorePut(b *testing.B) {
	store, err := kvstore.Open(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	value := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%4096))
		if err := store.Put(key, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVStoreGet measures point reads from the log-structured store.
func BenchmarkKVStoreGet(b *testing.B) {
	store, err := kvstore.Open(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	value := make([]byte, 256)
	for i := 0; i < 4096; i++ {
		if err := store.Put([]byte(fmt.Sprintf("key-%d", i)), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.Get([]byte(fmt.Sprintf("key-%d", i%4096))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScorer measures one ranking-function evaluation.
func BenchmarkScorer(b *testing.B) {
	cat := datagen.BlueNile(100, 4)
	sc, err := ranking.Bind(ranking.MustParse("price - 0.1*carat - 0.5*depth"),
		cat.Rel.Schema(), ranking.FromSchema(cat.Rel.Schema()))
	if err != nil {
		b.Fatal(err)
	}
	t := cat.Rel.Tuple(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Score(t)
	}
}

// BenchmarkRankingParse measures expression parsing.
func BenchmarkRankingParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ranking.Parse("price - 0.1*carat - 0.5*depth + 0.2*table"); err != nil {
			b.Fatal(err)
		}
	}
}
