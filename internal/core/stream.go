package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Stream is a get-next cursor: an incrementally materialised ranked result
// of one reranking query. Next discovers the best not-yet-produced tuple.
// A Stream is not safe for concurrent use; sessions serialise access.
type Stream struct {
	r      *Reranker
	pred   relation.Predicate
	scorer *ranking.Scorer
	exec   *parallel.Executor

	// seen holds the ID of every pred-matching tuple the stream has
	// observed (query results, crawls, cache seeds). A tuple enters cands
	// the first time it is seen and never again, so a produced tuple
	// cannot come back.
	seen map[int64]struct{}
	// cands holds the seen, not yet produced tuples, each scored once on
	// arrival, as a min-heap by (score, ID): its top is the best
	// candidate.
	cands candHeap
	// produced are the tuples already returned, in rank order.
	produced []relation.Tuple
	// lastScore is the score of the most recently produced tuple; by the
	// get-next invariant every matching tuple scoring strictly below it
	// has been produced.
	lastScore float64

	impl nextImpl

	total OpStats
	last  OpStats
}

// nextImpl is the algorithm-specific part of a stream: it discovers the
// best unproduced tuple or reports exhaustion.
type nextImpl interface {
	next(ctx context.Context) (relation.Tuple, bool, error)
}

// Rerank validates a query and opens a get-next stream for it using the
// Reranker's configured algorithm.
func (r *Reranker) Rerank(ctx context.Context, q Query) (*Stream, error) {
	if q.Pred.Unsatisfiable() {
		return nil, fmt.Errorf("core: query predicate is unsatisfiable")
	}
	norm, err := r.Normalization(ctx)
	if err != nil {
		return nil, err
	}
	scorer, err := ranking.Bind(q.Rank, r.db.Schema(), norm)
	if err != nil {
		return nil, err
	}
	st := &Stream{
		r:         r,
		pred:      q.Pred,
		scorer:    scorer,
		exec:      r.newExecutor(),
		lastScore: negInf,
	}
	// Seed the candidates from the user-level session cache (§II-A):
	// every cached tuple matching the filter is a warm candidate.
	var seeds []relation.Tuple
	if r.opt.Cache != nil {
		seeds = r.opt.Cache.CachedMatching(q.Pred)
		st.total.CacheCandidates += int64(len(seeds))
	}
	st.seen = make(map[int64]struct{}, len(seeds))
	st.cands = make(candHeap, 0, len(seeds))
	for _, t := range seeds {
		if _, ok := st.seen[t.ID]; !ok {
			st.add(t)
		}
	}
	algo := r.opt.Algorithm
	if algo == TA && scorer.Dims() > 1 {
		impl, err := newTAEngine(ctx, st)
		if err != nil {
			return nil, err
		}
		st.impl = impl
	} else {
		if algo == TA {
			algo = Rerank // 1D TA degenerates to 1D-Rerank
		}
		impl, err := newEngine(st, algo)
		if err != nil {
			return nil, err
		}
		st.impl = impl
	}
	return st, nil
}

// Scorer returns the stream's bound ranking function (with the discovered
// normalisation), which defines the exact order the stream produces.
func (st *Stream) Scorer() *ranking.Scorer { return st.scorer }

// Pred returns the stream's filter predicate.
func (st *Stream) Pred() relation.Predicate { return st.pred }

// Produced returns the tuples produced so far, in rank order. The slice
// must not be modified.
func (st *Stream) Produced() []relation.Tuple { return st.produced }

// LastStats describes the most recent Next call; TotalStats accumulates
// the stream's whole history (including cache seeding).
func (st *Stream) LastStats() OpStats  { return st.last }
func (st *Stream) TotalStats() OpStats { return st.total }

// Next performs one get-next: it returns the matching tuple with the
// smallest score not yet produced, or ok=false when the result set is
// exhausted.
func (st *Stream) Next(ctx context.Context) (t relation.Tuple, ok bool, err error) {
	// Engine-internal counters (crawls, dense hits, TA sub-stream work)
	// are booked directly into st.last by the impl during next; the
	// executor delta is merged on top afterwards.
	st.last = OpStats{}
	start := time.Now()
	before := st.exec.Counters()
	t, ok, err = st.impl.next(ctx)
	delta := execDelta(before, st.exec.StatsSince(int(before.Batches)))
	delta.Elapsed = time.Since(start)
	if err == nil && ok {
		delta.Produced = 1
		st.produce(t)
	}
	st.last.add(delta)
	st.total.add(st.last)
	return t, ok, err
}

// produce registers a tuple as returned to the user. The engines only
// ever return the best candidate, so t is the top of cands.
func (st *Stream) produce(t relation.Tuple) {
	st.produced = append(st.produced, t)
	st.lastScore = st.cands.pop().score
	if st.r.opt.Cache != nil {
		st.r.opt.Cache.CacheTuples(t)
	}
}

// NextN returns up to n further tuples — one result page of QR2's UI.
func (st *Stream) NextN(ctx context.Context, n int) ([]relation.Tuple, error) {
	var out []relation.Tuple
	for len(out) < n {
		t, ok, err := st.Next(ctx)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// observe makes every first-seen tuple matching the stream predicate a
// candidate, and hands all of ts to the session cache.
func (st *Stream) observe(ts []relation.Tuple) {
	for _, t := range ts {
		if _, ok := st.seen[t.ID]; ok || !st.pred.Match(t) {
			continue
		}
		st.add(t)
	}
	if st.r.opt.Cache != nil {
		st.r.opt.Cache.CacheTuples(ts...)
	}
}

// add scores a first-seen matching tuple and makes it a candidate.
func (st *Stream) add(t relation.Tuple) {
	st.seen[t.ID] = struct{}{}
	st.cands.push(candidate{score: st.scorer.Score(t), t: t})
}

// bestCandidate returns the unproduced tuple with the smallest (score, ID)
// and its score: the top of cands.
func (st *Stream) bestCandidate() (relation.Tuple, float64, bool) {
	if len(st.cands) == 0 {
		return relation.Tuple{}, 0, false
	}
	c := st.cands[0]
	return c.t, c.score, true
}

// candidate is a seen tuple with its score.
type candidate struct {
	score float64
	t     relation.Tuple
}

// candHeap is a binary min-heap of candidates ordered by rankLess. It is
// written out rather than built on container/heap, whose interface boxes
// every pushed element.
type candHeap []candidate

func (h candHeap) less(i, j int) bool {
	return rankLess(h[i].score, h[i].t.ID, h[j].score, h[j].t.ID)
}

func (h *candHeap) push(c candidate) {
	*h = append(*h, c)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *candHeap) pop() candidate {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = candidate{} // drop the tuple reference
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q.less(l, m) {
			m = l
		}
		if r := l + 1; r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
