// Package hidden simulates a hidden web database: a data store reachable
// only through a public top-k search interface.
//
// This is the substrate the QR2 paper assumes. A client submits a
// conjunctive filter query; the database returns at most system-k matching
// tuples ordered by a proprietary system ranking function, together with an
// overflow flag telling the client whether matches were cut off. Nothing
// else about the database — its size, its ranking function, its value
// distributions — is observable.
//
// The reranking algorithms in internal/core are written against the DB
// interface and therefore work identically over the in-process simulator
// (Local), the HTTP facade in internal/wdbhttp, or any other implementation.
//
// Local answers a selective search from per-attribute value indexes, which
// keeps the simulator's own CPU small beside the latency a real web query
// costs, and any other search by an early-stopping scan in system-rank
// order. Both paths give exactly the answer of a full scan in rank order, so
// no query count depends on which one ran.
package hidden

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Result is the response of one top-k search.
type Result struct {
	// Tuples holds at most system-k matching tuples in system-rank order
	// (best first). When Overflow is false it is the complete match set.
	Tuples []relation.Tuple
	// Overflow reports that more matching tuples exist than were returned.
	Overflow bool
	// Degraded marks a best-effort answer fabricated while the source was
	// unreachable (internal/resilience degraded serving). A degraded result
	// may be empty or stale and must never be admitted into any durable
	// layer: answer caches, crawl sets, dense indexes, or peer pushes.
	Degraded bool
}

// DB is the public search interface of a hidden web database — the only
// capability QR2 may use.
type DB interface {
	// Name identifies the data source ("bluenile", "zillow").
	Name() string
	// Schema describes the searchable attributes, as published on the
	// database's search form.
	Schema() *relation.Schema
	// SystemK is the maximum number of tuples one search returns.
	SystemK() int
	// Search runs one top-k query.
	Search(ctx context.Context, p relation.Predicate) (Result, error)
}

// Counter is implemented by databases that count the queries issued to
// them; the experiment harness uses it for the paper's query-cost metric.
type Counter interface {
	QueryCount() int64
	ResetQueryCount()
}

// Local is an in-process hidden database over an in-memory relation.
//
// It holds the tuples pre-sorted by the proprietary system ranking, and for
// every attribute the rank positions sorted by that attribute's value, both
// built once in NewLocal. A search picks the condition with the fewest
// candidate tuples (two binary searches per interval or category), marks
// those candidates' rank positions and checks the full predicate on them in
// rank order, stopping at system-k matches plus one witness for the overflow
// flag. When no condition narrows the search to at most 1/indexCutoff of the
// tuples, it scans every tuple in rank order with the same early stop. Both
// paths visit matching tuples in rank order, so they return the same tuples
// in the same order with the same Overflow. None of this is visible through
// the interface, exactly as a real web database's internals are not.
type Local struct {
	name    string
	rel     *relation.Relation
	k       int
	order   []int     // tuple positions in ascending system-score order
	byValue [][]int32 // per attribute: rank positions (into order) by ascending value
	latency time.Duration
	queries atomic.Int64
}

// indexCutoff sets when a condition is selective: at most n/indexCutoff of
// the n tuples satisfy it. Past that, marking the candidates costs about as
// much as the rank-order scan, which stops after system-k+1 matches, does.
const indexCutoff = 4

// Option configures a Local database.
type Option func(*Local)

// WithLatency makes every search sleep for d before answering, simulating
// network and server time of a real web database. Use zero (the default)
// for tests and simulated-time experiments.
func WithLatency(d time.Duration) Option {
	return func(l *Local) { l.latency = d }
}

// NewLocal builds a hidden database from a relation, a system-k limit and
// the proprietary ranking function (lower scores returned first, ties broken
// by tuple ID).
func NewLocal(name string, rel *relation.Relation, systemK int, rank func(relation.Tuple) float64, opts ...Option) (*Local, error) {
	if systemK <= 0 {
		return nil, fmt.Errorf("hidden: system-k must be positive, got %d", systemK)
	}
	if rank == nil {
		return nil, fmt.Errorf("hidden: nil system ranking function")
	}
	order := rel.SortedBy(rank)
	l := &Local{
		name:    name,
		rel:     rel,
		k:       systemK,
		order:   order,
		byValue: valueIndex(rel, order),
	}
	for _, o := range opts {
		o(l)
	}
	return l, nil
}

// valueIndex returns, for every attribute, the rank positions of the tuples
// in ascending order of the attribute's value.
func valueIndex(rel *relation.Relation, order []int) [][]int32 {
	vals := make([][]float64, rel.Schema().Len())
	for a := range vals {
		vals[a] = make([]float64, len(order))
	}
	for r, pos := range order {
		for a, v := range rel.Tuple(pos).Values {
			vals[a][r] = v
		}
	}
	idx := make([][]int32, len(vals))
	for a, v := range vals {
		idx[a] = relation.Order(v, nil)
	}
	return idx
}

// Name implements DB.
func (l *Local) Name() string { return l.name }

// Schema implements DB.
func (l *Local) Schema() *relation.Schema { return l.rel.Schema() }

// SystemK implements DB.
func (l *Local) SystemK() int { return l.k }

// Search implements DB. Results are the true top-k of the matching set
// under the system ranking; Overflow is set iff more than k tuples match.
// Each call is one web-database round trip, so it records one web_query
// span on the request's trace — the leaf is the only place every real
// query passes through exactly once, whichever caching or clustering
// decorators sit above it.
func (l *Local) Search(ctx context.Context, p relation.Predicate) (res Result, err error) {
	tm := obs.FromContext(ctx).Start(obs.StageWebQuery)
	defer func() { tm.EndQueries(obs.ErrOutcome(err, obs.OutcomeOK), 1) }()
	l.queries.Add(1)
	if l.latency > 0 {
		select {
		case <-time.After(l.latency):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	} else if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if p.Unsatisfiable() {
		return Result{}, nil
	}
	if marked, ok := l.candidates(p); ok {
		for w, word := range marked {
			for ; word != 0; word &= word - 1 {
				if l.offer(&res, p, w<<6|bits.TrailingZeros64(word)) {
					return res, nil
				}
			}
		}
		return res, nil
	}
	for r := range l.order {
		if r%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if l.offer(&res, p, r) {
			break
		}
	}
	return res, nil
}

// offer appends the tuple at rank position r to res if it matches p, and
// reports whether the search is complete: res holds system-k tuples and
// this one witnesses the overflow.
func (l *Local) offer(res *Result, p relation.Predicate, r int) bool {
	t := l.rel.Tuple(l.order[r])
	if !p.Match(t) {
		return false
	}
	if len(res.Tuples) == l.k {
		res.Overflow = true
		return true
	}
	res.Tuples = append(res.Tuples, t)
	return false
}

// candidates returns a bitmap over rank positions marking every tuple that
// satisfies the most selective condition of p, or ok=false when no condition
// is satisfied by at most n/indexCutoff tuples.
func (l *Local) candidates(p relation.Predicate) (marked []uint64, ok bool) {
	var best [][]int32
	bestN := len(l.order)/indexCutoff + 1
	for _, c := range p.Conditions() {
		if runs, n := l.runs(c); n < bestN {
			best, bestN, ok = runs, n, true
		}
	}
	if !ok {
		return nil, false
	}
	marked = make([]uint64, (len(l.order)+63)/64)
	for _, run := range best {
		for _, r := range run {
			marked[r>>6] |= 1 << (r & 63)
		}
	}
	return marked, true
}

// runs returns the runs of the value index holding exactly the tuples that
// satisfy c, and their total length. A condition the index cannot answer
// exactly gets a length past every cut-off.
func (l *Local) runs(c relation.Condition) ([][]int32, int) {
	ranks := l.byValue[c.Attr]
	// search returns the first index whose value satisfies f; f must be
	// false then true along ascending values, as the interval tests are.
	search := func(f func(v float64) bool) int {
		return sort.Search(len(ranks), func(i int) bool {
			return f(l.rel.Tuple(l.order[ranks[i]]).Values[c.Attr])
		})
	}
	if c.Cats == nil {
		iv := c.Iv
		lo := search(func(v float64) bool { return !(v < iv.Lo || v == iv.Lo && iv.LoOpen) })
		hi := search(func(v float64) bool { return v > iv.Hi || v == iv.Hi && iv.HiOpen })
		return [][]int32{ranks[lo:hi]}, hi - lo
	}
	// A categorical condition matches int(v), which is v itself only on a
	// categorical attribute, whose values are validated category codes.
	if l.rel.Schema().Attr(c.Attr).Kind != relation.Categorical {
		return nil, math.MaxInt
	}
	runs := make([][]int32, 0, len(c.Cats))
	n := 0
	for _, code := range c.Cats {
		v := float64(code)
		lo := search(func(x float64) bool { return x >= v })
		hi := search(func(x float64) bool { return x > v })
		runs = append(runs, ranks[lo:hi])
		n += hi - lo
	}
	return runs, n
}

// QueryCount implements Counter.
func (l *Local) QueryCount() int64 { return l.queries.Load() }

// ResetQueryCount implements Counter.
func (l *Local) ResetQueryCount() { l.queries.Store(0) }

// Flaky wraps a DB and injects an error every Nth search. It exists for
// failure-path testing of the middleware: a real web database throttles and
// times out, and QR2 must surface that cleanly.
type Flaky struct {
	Inner DB
	// FailEvery makes every FailEvery-th query (1-based) fail. Zero
	// disables injection.
	FailEvery int64
	calls     atomic.Int64
}

// Name implements DB.
func (f *Flaky) Name() string { return f.Inner.Name() }

// Schema implements DB.
func (f *Flaky) Schema() *relation.Schema { return f.Inner.Schema() }

// SystemK implements DB.
func (f *Flaky) SystemK() int { return f.Inner.SystemK() }

// Search implements DB, failing on the configured cadence.
func (f *Flaky) Search(ctx context.Context, p relation.Predicate) (Result, error) {
	n := f.calls.Add(1)
	if f.FailEvery > 0 && n%f.FailEvery == 0 {
		return Result{}, fmt.Errorf("hidden: injected failure on query %d", n)
	}
	return f.Inner.Search(ctx, p)
}
