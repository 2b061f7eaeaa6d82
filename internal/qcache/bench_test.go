package qcache

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/region"
	"repro/internal/relation"
)

// benchFill warms nPreds disjoint complete answers into db.
func benchFill(b *testing.B, db hidden.DB, nPreds int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < nPreds; i++ {
		lo := float64(i * 50)
		if _, err := db.Search(ctx, pricePred(lo, lo+30)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit is the exact-hit fast path of a stand-alone cache:
// the baseline every pool number compares against.
func BenchmarkCacheHit(b *testing.B) {
	c, err := New(testDB(b, 2000, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, c, 16)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			lo := float64((i % 16) * 50)
			if _, err := c.Search(ctx, pricePred(lo, lo+30)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPoolHit measures the same exact-hit path through a pool shared
// by four namespaces, with every worker spreading traffic across all of
// them — the cross-source contention case the pool is built for.
func BenchmarkPoolHit(b *testing.B) {
	pool := NewPool(PoolConfig{})
	const sources = 4
	caches := make([]*Cache, sources)
	for s := 0; s < sources; s++ {
		c, err := pool.Namespace(fmt.Sprintf("src%d", s), testDB(b, 2000, 20), Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchFill(b, c, 16)
		caches[s] = c
	}
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			lo := float64((i % 16) * 50)
			if _, err := caches[i%sources].Search(ctx, pricePred(lo, lo+30)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPoolContainmentHit measures overflow-aware reuse through the
// pool: every lookup misses its exact key and is assembled client-side
// from a broader complete answer, including the post-hit LRU refresh.
func BenchmarkPoolContainmentHit(b *testing.B) {
	pool := NewPool(PoolConfig{})
	c, err := pool.Namespace("src", testDB(b, 2000, 40), Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		lo := float64(i * 100)
		if res, err := c.Search(ctx, pricePred(lo, lo+30)); err != nil || res.Overflow {
			b.Fatalf("broad fill %d: %v overflow=%v", i, err, res.Overflow)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			lo := float64((i%8)*100) + 5 + float64(i%17)
			if _, err := c.Search(ctx, pricePred(lo, lo+3)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPoolEvictionChurn measures the write path under global budget
// pressure: every search misses, admits a fresh answer and evicts a cold
// one, with the floor-aware victim walk engaged across two namespaces.
// The inner (simulated) database query is part of each op — this is the
// full miss-path cost, not the bookkeeping alone.
func BenchmarkPoolEvictionChurn(b *testing.B) {
	pool := NewPool(PoolConfig{MaxBytes: 32 << 10, Shards: 4})
	a, err := pool.Namespace("a", testDB(b, 2000, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pool.Namespace("b", testDB(b, 100, 20), Config{}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64((i * 37) % 1900)
		if _, err := a.Search(ctx, pricePred(lo, lo+25)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRegionFill admits 1000 half-unit entries spread over price
// [0,1000) directly (no inner queries), so the wipe benchmarks price the
// wipe alone.
func benchRegionFill(b *testing.B, c *Cache) {
	b.Helper()
	res := hidden.Result{Tuples: []relation.Tuple{{ID: 1, Values: []float64{1, 0}}}}
	for j := 0; j < 1000; j++ {
		c.Admit(pricePred(float64(j), float64(j)+0.5), res)
	}
}

// BenchmarkRegionWipe1k prices one region-scoped bump over a namespace
// holding 1k resident entries: every entry pays the key-decoded
// rect-intersection check, the intersecting half is dropped and the
// disjoint half survives — the selective wipe, priced against
// BenchmarkFullWipe1k.
func BenchmarkRegionWipe1k(b *testing.B) {
	reg := epoch.NewRegistry()
	c, err := New(testDB(b, 2000, 20), Config{Epochs: reg})
	if err != nil {
		b.Fatal(err)
	}
	rect := region.MustNew([]int{0}, []relation.Interval{relation.Closed(0, 500)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchRegionFill(b, c)
		b.StartTimer()
		reg.BumpRegion(c.Name(), rect)
	}
}

// BenchmarkFullWipe1k prices the unscoped bump over the same 1k-entry
// namespace: no per-entry checks, everything dropped wholesale.
func BenchmarkFullWipe1k(b *testing.B) {
	reg := epoch.NewRegistry()
	c, err := New(testDB(b, 2000, 20), Config{Epochs: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchRegionFill(b, c)
		b.StartTimer()
		reg.Bump(c.Name())
	}
}
