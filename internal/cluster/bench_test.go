package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkRingOwner is the pure routing decision: hashing a namespaced
// canonical key onto the ring with the aliveness filter. This runs on
// every Search in cluster mode, so it must stay in the tens of
// nanoseconds next to the ~600 ns pool hit underneath it.
func BenchmarkRingOwner(b *testing.B) {
	ring := NewRing([]string{"a", "b", "c"}, 0)
	alive := func(string) bool { return true }
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("zillow\x00key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ring.Owner(keys[i%len(keys)], alive); !ok {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkOwnedLocalHit is a cluster-mode search for a key this replica
// owns: ring lookup plus the ordinary pool hit — the overhead clustering
// adds to the common case.
func BenchmarkOwnedLocalHit(b *testing.B) {
	reps := newCluster(b, 3)
	ctx := context.Background()
	a := reps[0]
	p := predOwnedBy(b, reps, a.id)
	if _, err := a.db.Search(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.db.Search(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardHit is the full peer round trip: a foreign-owned key
// resident at its owner, one frame round trip per lookup. The gap to
// BenchmarkOwnedLocalHit is the price of not owning a key — and the
// budget for smarter routing (user affinity, read replicas) later.
func BenchmarkForwardHit(b *testing.B) {
	reps := newCluster(b, 3)
	ctx := context.Background()
	a, bRep := reps[0], reps[1]
	p := predOwnedBy(b, reps, bRep.id)
	if _, err := a.db.Search(ctx, p); err != nil {
		b.Fatal(err)
	}
	a.node.Quiesce()
	if _, ok := bRep.cache.Peek(p); !ok {
		b.Fatal("owner not warmed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.db.Search(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForeignLocalResidencyHit is the pre-forward residency check
// paying off: a foreign-owned key this replica happens to hold (a crawl
// set or fallback entry) served without any network.
func BenchmarkForeignLocalResidencyHit(b *testing.B) {
	reps := newCluster(b, 3)
	ctx := context.Background()
	a, bRep := reps[0], reps[1]
	p := predOwnedBy(b, reps, bRep.id)
	res, err := a.inner.Search(ctx, p)
	if err != nil {
		b.Fatal(err)
	}
	a.cache.Admit(p, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.db.Search(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardHitV2Batch8 is the forwarded resident hit under
// concurrency 8: eight callers, each hammering its own foreign-owned
// resident key, so the group-commit batcher coalesces their lookups
// into shared opBatchGet frames and the loopback RTT amortises across
// them. ns/op is per lookup. CI gates this under 10 µs and under the
// serial BenchmarkForwardHit — batching must beat one-frame-per-forward.
func BenchmarkForwardHitV2Batch8(b *testing.B) {
	reps := newCluster(b, 3)
	ctx := context.Background()
	a, bRep := reps[0], reps[1]
	preds := predsOwnedBy(b, reps, bRep.id, 16)
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	a.node.Quiesce()
	for _, p := range preds {
		if _, ok := bRep.cache.Peek(p); !ok {
			b.Fatal("owner not warmed")
		}
	}
	var next atomic.Int64
	b.SetParallelism(8) // 8 goroutines per GOMAXPROCS core
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One distinct predicate per caller: concurrency comes from the
		// callers, not from singleflight collapsing identical lookups.
		p := preds[int(next.Add(1))%len(preds)]
		for pb.Next() {
			if _, err := a.db.Search(ctx, p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	// Calibration passes (tiny b.N) can finish before two callers ever
	// overlap; only a real run must show coalesced frames.
	st := a.node.Stats().Transport
	if b.N >= 256 && (st == nil || st.BatchedGets == 0) {
		b.Fatalf("no coalescing happened: %+v", st)
	}
}
