// Package core implements the QR2 query reranking algorithms — the paper's
// primary contribution.
//
// Given a hidden web database exposing only a top-k search interface with a
// proprietary ranking function, a user filter query q and a user-specified
// monotone linear ranking function f, the package answers get-next: having
// produced the top-h tuples of q under f, discover tuple number h+1 while
// minimising the number of queries issued to the database.
//
// Four algorithm families from the paper are provided, for both the 1D
// (single ranking attribute) and MD (multi-attribute) settings:
//
//   - Baseline — broad queries over the remaining search space, narrowed
//     against the rank contour of the best-known tuple after every overflow.
//   - Binary — recursive halving of the search space with contour pruning.
//   - Rerank — Binary plus the on-the-fly dense-region index: a narrow
//     region that still overflows is crawled once, stored in the shared
//     index, and every later query over it is answered without touching the
//     web database.
//   - TA — (MD only) Fagin's Threshold Algorithm over per-attribute
//     1D-Rerank sorted-access streams.
//
// All algorithms are exact: the stream of Next results equals the
// brute-force ordering of the matching tuples by (f(t), tuple ID).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dense"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Algorithm selects the get-next strategy.
type Algorithm string

const (
	// Baseline is (1D/MD)-BASELINE: broad queries narrowed by the rank
	// contour; stateless across get-next calls.
	Baseline Algorithm = "baseline"
	// Binary is (1D/MD)-BINARY: recursive halving with contour pruning.
	Binary Algorithm = "binary"
	// Rerank is (1D/MD)-RERANK: Binary plus the dense-region oracle.
	Rerank Algorithm = "rerank"
	// TA is MD-TA: the threshold algorithm over 1D-Rerank streams. It is
	// also valid for a single ranking attribute, where it degenerates to
	// 1D-Rerank itself.
	TA Algorithm = "ta"
)

// ErrBudget is returned by Next when one get-next operation exceeds
// Options.MaxQueriesPerNext web database queries.
var ErrBudget = errors.New("core: get-next query budget exhausted")

// TupleCache is the user-level session cache of §II-A: tuples already seen
// on behalf of a user. Implemented by *session.Session. Every cached tuple
// matching the filter seeds the get-next search with a warm candidate,
// tightening the rank contour before the first query is issued.
type TupleCache interface {
	CacheTuples(ts ...relation.Tuple)
	CachedMatching(p relation.Predicate) []relation.Tuple
}

// Options configures a Reranker.
type Options struct {
	// Algorithm selects the strategy (default Rerank).
	Algorithm Algorithm
	// Parallel enables parallel verification and subspace queries
	// (§II-B). Default on; set SequentialOnly to disable.
	SequentialOnly bool
	// MaxParallel bounds in-flight queries per batch (default 8).
	MaxParallel int
	// SimLatency is the simulated per-query round-trip used for the
	// statistics panel's processing-time accounting.
	SimLatency time.Duration
	// DenseDepth is the split depth at which Rerank declares a still-
	// overflowing region dense and crawls it into the shared index
	// (default 16 — the region kept more than system-k tuples through
	// sixteen halvings). Baseline and Binary crawl only unsplittable
	// regions, which is forced by correctness.
	DenseDepth int
	// MaxQueriesPerNext bounds the queries a single get-next may issue
	// (default 20000).
	MaxQueriesPerNext int
	// DenseIndex is the shared on-the-fly index. When nil, Rerank gets a
	// fresh in-memory index private to this Reranker.
	DenseIndex *dense.Index
	// DenseResidentBytes sizes the decoded-tuple residency of a private
	// dense index (zero = dense.DefaultResidentBytes, negative disables).
	// Ignored when DenseIndex is provided: a shared index carries its own
	// budget.
	DenseResidentBytes int64
	// Cache is the per-user session cache (may be nil).
	Cache TupleCache
	// Normalization overrides interface-based min/max discovery. Leave
	// nil to discover the attribute extrema through the public interface
	// (the paper's approach).
	Normalization *ranking.Normalization
}

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = Rerank
	}
	if o.MaxParallel <= 0 {
		o.MaxParallel = 8
	}
	if o.DenseDepth <= 0 {
		o.DenseDepth = 16
	}
	if o.MaxQueriesPerNext <= 0 {
		o.MaxQueriesPerNext = 20000
	}
	return o
}

// Query is a reranking request: a filter predicate plus a user ranking
// function.
type Query struct {
	Pred relation.Predicate
	Rank ranking.Function
}

// Reranker answers reranking queries over one hidden web database. It is
// safe for concurrent use; concurrent streams share the dense-region index
// and the normalisation but have independent statistics.
type Reranker struct {
	db  hidden.DB
	opt Options
	ix  *dense.Index

	normMu      sync.Mutex
	norm        *ranking.Normalization
	normQueries int64
}

// New builds a Reranker over a hidden database.
func New(db hidden.DB, opt Options) (*Reranker, error) {
	opt = opt.withDefaults()
	switch opt.Algorithm {
	case Baseline, Binary, Rerank, TA:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", opt.Algorithm)
	}
	r := &Reranker{db: db, opt: opt, ix: opt.DenseIndex}
	if r.ix == nil {
		ix, err := dense.Open(db.Schema(), kvstore.NewMemory(), dense.WithResidentBytes(opt.DenseResidentBytes))
		if err != nil {
			return nil, err
		}
		r.ix = ix
	}
	if opt.Normalization != nil {
		n := *opt.Normalization
		r.norm = &n
	}
	return r, nil
}

// DB returns the underlying database.
func (r *Reranker) DB() hidden.DB { return r.db }

// DenseIndex returns the shared dense-region index.
func (r *Reranker) DenseIndex() *dense.Index { return r.ix }

// NormalizationQueries reports how many queries min/max discovery cost.
// The cost is paid once per Reranker and amortised over all streams.
func (r *Reranker) NormalizationQueries() int64 {
	r.normMu.Lock()
	defer r.normMu.Unlock()
	return r.normQueries
}

// newExecutor builds a per-stream query executor from the options.
func (r *Reranker) newExecutor() *parallel.Executor {
	return parallel.New(r.db,
		parallel.WithParallel(!r.opt.SequentialOnly),
		parallel.WithMaxParallel(r.opt.MaxParallel),
		parallel.WithSimLatency(r.opt.SimLatency),
	)
}

// Normalization returns the min–max normalisation for the database's
// numeric attributes, discovering the extrema through the public search
// interface on first use (paper §II-B: "obtaining the min and max values on
// each attribute is simply doable using the 1D-RERANK algorithm").
//
// The discovered bounds are sound: the returned minimum is never above the
// true minimum and the maximum never below the true maximum, so every tuple
// normalises into [0, 1].
func (r *Reranker) Normalization(ctx context.Context) (ranking.Normalization, error) {
	r.normMu.Lock()
	defer r.normMu.Unlock()
	if r.norm != nil {
		return *r.norm, nil
	}
	schema := r.db.Schema()
	ex := r.newExecutor()
	n := ranking.Normalization{Min: make([]float64, schema.Len()), Max: make([]float64, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		if a.Kind != relation.Numeric {
			continue
		}
		lo, err := discoverExtreme(ctx, ex, i, a, false)
		if err != nil {
			return ranking.Normalization{}, fmt.Errorf("core: discover min of %q: %w", a.Name, err)
		}
		hi, err := discoverExtreme(ctx, ex, i, a, true)
		if err != nil {
			return ranking.Normalization{}, fmt.Errorf("core: discover max of %q: %w", a.Name, err)
		}
		if hi < lo {
			lo, hi = a.Min, a.Max
		}
		n.Min[i], n.Max[i] = lo, hi
	}
	r.norm = &n
	r.normQueries = ex.Stats().Queries
	return n, nil
}

// discoverExtreme finds a sound bound for the smallest (descending=false)
// or largest (descending=true) value of attribute attr using only top-k
// queries: a binary descent towards the boundary of the provably empty
// region. The result is a value v with v <= true-min (resp. v >= true-max),
// within one resolution step of the truth.
func discoverExtreme(ctx context.Context, ex *parallel.Executor, attr int, a relation.Attribute, descending bool) (float64, error) {
	domain := a.Domain()
	res, err := ex.Search(ctx, relation.Predicate{})
	if err != nil {
		return 0, err
	}
	if len(res.Tuples) == 0 {
		// Empty database: fall back to the advertised domain.
		if descending {
			return a.Max, nil
		}
		return a.Min, nil
	}
	best := res.Tuples[0].Values[attr]
	for _, t := range res.Tuples[1:] {
		if v := t.Values[attr]; (descending && v > best) || (!descending && v < best) {
			best = v
		}
	}
	if !res.Overflow {
		return best, nil
	}
	minWidth := a.Resolution
	if minWidth <= 0 {
		minWidth = (a.Max - a.Min) * 1e-9
	}
	// proven is the boundary of the region shown to contain no tuples;
	// the true extreme lies between proven and best.
	proven := domain.Lo
	if descending {
		proven = domain.Hi
	}
	for iter := 0; iter < 200; iter++ {
		var width float64
		if descending {
			width = proven - best
		} else {
			width = best - proven
		}
		if width <= minWidth {
			break
		}
		var probe relation.Interval
		var mid float64
		if descending {
			mid = best + width/2
			probe = relation.OpenLo(mid, proven)
		} else {
			mid = proven + width/2
			probe = relation.OpenHi(proven, mid)
		}
		res, err := ex.Search(ctx, relation.Predicate{}.WithInterval(attr, probe))
		if err != nil {
			return 0, err
		}
		if len(res.Tuples) == 0 {
			// The probed half is empty: the extreme is on the other side.
			if descending {
				proven = mid
			} else {
				proven = mid
			}
			continue
		}
		for _, t := range res.Tuples {
			if v := t.Values[attr]; (descending && v > best) || (!descending && v < best) {
				best = v
			}
		}
		if !res.Overflow {
			// Complete view of the probed half, which contains the extreme.
			return best, nil
		}
	}
	// best is an achieved value and proven bounds the empty region; return
	// the sound side of the residual uncertainty.
	return proven, nil
}

// rankLess is the stream order: ascending score, ties broken by ascending
// tuple ID. The candidate heap and BruteForceTop both order by it.
func rankLess(scoreA float64, idA int64, scoreB float64, idB int64) bool {
	if scoreA != scoreB {
		return scoreA < scoreB
	}
	return idA < idB
}

// BruteForceTop returns the first n matching tuples of q under the stream
// ordering rankLess (score, then ID), computed by scanning rel directly. It
// is the test and documentation oracle — it sees the raw relation, which no
// third-party service could.
func BruteForceTop(rel *relation.Relation, pred relation.Predicate, sc *ranking.Scorer, n int) []relation.Tuple {
	matches := rel.Select(pred)
	less := func(a, b int) bool {
		return rankLess(sc.Score(matches[a]), matches[a].ID, sc.Score(matches[b]), matches[b].ID)
	}
	// Simple selection of the top-n to keep the oracle obviously correct.
	out := make([]relation.Tuple, 0, n)
	used := make([]bool, len(matches))
	for len(out) < n && len(out) < len(matches) {
		bestIdx := -1
		for i := range matches {
			if used[i] {
				continue
			}
			if bestIdx < 0 || less(i, bestIdx) {
				bestIdx = i
			}
		}
		used[bestIdx] = true
		out = append(out, matches[bestIdx])
	}
	return out
}

// negInf is the initial "score of the last produced tuple".
var negInf = math.Inf(-1)
