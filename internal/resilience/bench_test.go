package resilience

import (
	"context"
	"testing"

	"repro/internal/hidden"
	"repro/internal/relation"
)

// BenchmarkSearchHappyPath measures the per-call overhead the policy
// wrapper adds when the source is healthy — breaker admission, attempt
// bookkeeping and the per-attempt deadline context. CI gates this under
// 1 µs.
func BenchmarkSearchHappyPath(b *testing.B) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{}, nil
	}}
	src := NewSource(Policy{})
	wrapped := src.Wrap(db)
	ctx := context.Background()
	p := relation.Predicate{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wrapped.Search(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchShortCircuit measures the open-breaker fast path: the
// cost of rejecting (and degrading) a call without touching the source.
func BenchmarkSearchShortCircuit(b *testing.B) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{}, nil
	}}
	src := NewSource(Policy{DegradedServe: true})
	wrapped := src.Wrap(db)
	for i := 0; i < src.pol.BreakerThreshold; i++ {
		src.br.failure()
	}
	if src.State() != Open {
		b.Fatal("breaker did not open")
	}
	ctx := context.Background()
	p := relation.Predicate{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wrapped.Search(ctx, p)
		if err != nil || !res.Degraded {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}
