package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/crawl"
	"repro/internal/obs"
	"repro/internal/ranking"
	"repro/internal/region"
	"repro/internal/relation"
)

// leafState tracks a region's lifecycle in the worklist.
type leafState uint8

const (
	// leafUnexplored regions have not been resolved yet.
	leafUnexplored leafState = iota
	// leafEnumerated regions are complete: every pred-matching tuple
	// inside them is known (query underflow, dense-index hit, or crawl).
	leafEnumerated
)

// leaf is one region of the worklist, in normalised ranking coordinates.
type leaf struct {
	rect  region.Rect
	state leafState
	depth int
	// linMin caches rect.LinearMin(weights) for the current prune pass; it
	// is refreshed by pruneAndFrontier and reused by the dormant sort.
	linMin float64
}

// engine is the shared region-worklist machine behind (1D/MD)-BASELINE,
// -BINARY and -RERANK. The three strategies differ only in how an
// overflowing region is refined:
//
//   - Baseline clips the region against the rank contour of the best-known
//     candidate and re-queries it, splitting only when clipping stalls; its
//     worklist is rebuilt from the whole domain on every get-next.
//   - Binary halves the region along its (relatively) widest dimension; the
//     worklist persists across get-nexts, so previously enumerated regions
//     are never re-queried.
//   - Rerank behaves like Binary until a region narrower than the dense
//     threshold still overflows; then the region is crawled completely,
//     inserted into the shared dense index, and answered locally — as are
//     all future regions the index covers.
//
// Every strategy falls back to a crawl when a region is unsplittable (a
// point region still overflowing means more than system-k tuples share the
// value — the paper's general-positioning fix).
type engine struct {
	st   *Stream
	algo Algorithm

	attrs   []int     // schema positions of the ranking attributes
	weights []float64 // aligned with attrs
	domain  region.Rect
	// rawDomain is domain in raw attribute coordinates, with its edges
	// taken from the filter or the discovered extrema rather than
	// round-tripped through the normalisation, which can move a bound one
	// ulp inward and drop the tuples on it.
	rawDomain region.Rect
	refWidths []float64 // domain widths, for relative width measures
	minSplit  []float64 // minimal splittable width per dimension

	leaves      []*leaf
	initialized bool
	empty       bool

	// Per-iteration scratch, reused across iterations and get-nexts.
	frontier, dormant, toQuery []*leaf
	preds                      []relation.Predicate // aligned with toQuery
	rawIvs                     []relation.Interval  // see scratchRawRect
}

func newEngine(st *Stream, algo Algorithm) (*engine, error) {
	sc := st.scorer
	norm := sc.Norm()
	schema := st.r.db.Schema()
	e := &engine{st: st, algo: algo, attrs: sc.Attrs(), weights: sc.Weights()}
	ivs := make([]relation.Interval, len(e.attrs))
	rawIvs := make([]relation.Interval, len(e.attrs))
	e.refWidths = make([]float64, len(e.attrs))
	e.minSplit = make([]float64, len(e.attrs))
	for i, a := range e.attrs {
		filter := st.pred.Interval(a)
		nIv := relation.Interval{
			Lo: norm.Normalize(a, filter.Lo), LoOpen: filter.LoOpen,
			Hi: norm.Normalize(a, filter.Hi), HiOpen: filter.HiOpen,
		}
		ivs[i] = relation.Closed(0, 1).Intersect(nIv)
		// The raw edges follow the choice Intersect made: the filter's
		// bound where it binds, else the discovered extreme.
		rawIvs[i] = relation.Closed(norm.Min[a], norm.Max[a])
		if nIv.Lo > 0 || (nIv.Lo == 0 && nIv.LoOpen) {
			rawIvs[i].Lo, rawIvs[i].LoOpen = filter.Lo, filter.LoOpen
		}
		if nIv.Hi < 1 || (nIv.Hi == 1 && nIv.HiOpen) {
			rawIvs[i].Hi, rawIvs[i].HiOpen = filter.Hi, filter.HiOpen
		}
		if ivs[i].Empty() {
			e.empty = true
		}
		e.refWidths[i] = ivs[i].Width()
		span := norm.Max[a] - norm.Min[a]
		res := schema.Attr(a).Resolution
		switch {
		case span <= 0:
			e.minSplit[i] = math.Inf(1) // degenerate attribute: never split
		case res > 0:
			e.minSplit[i] = math.Max(res/span, 1e-12)
		default:
			e.minSplit[i] = 1e-9
		}
	}
	rect, err := region.New(e.attrs, ivs)
	if err != nil {
		return nil, err
	}
	e.domain = rect
	e.rawDomain = region.Rect{Attrs: rect.Attrs, Ivs: rawIvs}
	return e, nil
}

// rawRect converts a normalised rect into raw attribute coordinates. The
// result shares nr's Attrs and writes its intervals over buf when buf has
// room. An edge on the domain's edge maps to the exact raw bound of
// rawDomain.
func (e *engine) rawRect(nr region.Rect, buf []relation.Interval) region.Rect {
	norm := e.st.scorer.Norm()
	ivs := append(buf[:0], nr.Ivs...)
	for i, a := range nr.Attrs {
		ivs[i].Lo = e.rawValue(i, a, norm, ivs[i].Lo)
		ivs[i].Hi = e.rawValue(i, a, norm, ivs[i].Hi)
	}
	return region.Rect{Attrs: nr.Attrs, Ivs: ivs}
}

// scratchRawRect is rawRect over the engine's scratch intervals: the
// result is valid until the next call.
func (e *engine) scratchRawRect(nr region.Rect) region.Rect {
	rr := e.rawRect(nr, e.rawIvs)
	e.rawIvs = rr.Ivs
	return rr
}

// rawValue denormalises coordinate x of dimension i (attribute a).
func (e *engine) rawValue(i, a int, norm ranking.Normalization, x float64) float64 {
	switch x {
	case e.domain.Ivs[i].Lo:
		return e.rawDomain.Ivs[i].Lo
	case e.domain.Ivs[i].Hi:
		return e.rawDomain.Ivs[i].Hi
	}
	return norm.Denormalize(a, x)
}

// next implements nextImpl.
func (e *engine) next(ctx context.Context) (relation.Tuple, bool, error) {
	if e.empty {
		return relation.Tuple{}, false, nil
	}
	if !e.initialized || e.algo == Baseline {
		// Baseline is stateless per get-next: broad queries over the whole
		// remaining space every time. Binary/Rerank keep their worklist.
		e.leaves = []*leaf{{rect: e.domain.Clone()}}
		e.initialized = true
	}
	budget := e.st.r.opt.MaxQueriesPerNext
	startQueries := e.st.exec.Counters().Queries
	used := func() int { return int(e.st.exec.Counters().Queries - startQueries) }

	specBudget := e.st.r.opt.MaxParallel
	for iter := 0; iter < 1<<20; iter++ {
		if err := ctx.Err(); err != nil {
			return relation.Tuple{}, false, err
		}
		cand, candScore, haveCand := e.st.bestCandidate()

		// Prune dead regions and assemble the frontier: the set of
		// unexplored regions that could still contain a tuple beating the
		// candidate. Querying all of them at once is the paper's parallel
		// verification: together they cover every area in which a tuple
		// may dominate the best-known one.
		frontier, dormant := e.pruneAndFrontier(candScore, haveCand)
		if len(frontier) == 0 {
			if haveCand {
				return cand, true, nil
			}
			return relation.Tuple{}, false, nil
		}
		// Speculative parallelism (§II-B): while the round trip for the
		// mandatory frontier is in flight anyway, fill the batch with the
		// dormant regions closest to the contour — they are the ones the
		// next get-next will most likely need. This can issue queries a
		// sequential run would avoid (the paper's stated trade-off) but
		// converts their latency from future round trips into the
		// current one. Bounded per get-next so speculation cannot run
		// away.
		if e.st.exec.Parallel() && specBudget > 0 && len(dormant) > 0 {
			take := e.st.r.opt.MaxParallel - len(frontier)
			if take > specBudget {
				take = specBudget
			}
			if take > 0 {
				sortLeavesByLinearMin(dormant)
				if take > len(dormant) {
					take = len(dormant)
				}
				frontier = append(frontier, dormant[:take]...)
				specBudget -= take
			}
		}

		// Dense-index lookups resolve regions for free (Rerank only). The
		// query for a region is the user filter plus its raw bounds.
		toQuery, preds := frontier, e.preds[:0]
		if e.algo == Rerank {
			toQuery = e.toQuery[:0]
			for _, lf := range frontier {
				rr := e.scratchRawRect(lf.rect)
				hit, err := e.tryDenseIndex(ctx, lf, rr)
				if err != nil {
					return relation.Tuple{}, false, err
				}
				if !hit {
					toQuery = append(toQuery, lf)
					preds = append(preds, rr.Predicate(e.st.pred))
				}
			}
			e.toQuery = toQuery
			if len(toQuery) == 0 {
				continue
			}
		}

		// Baseline tightens each region against the candidate's rank
		// contour before spending a query on it.
		if e.algo == Baseline && haveCand {
			kept := toQuery[:0]
			for _, lf := range toQuery {
				lf.rect = clipBelowContour(lf.rect, e.weights, candScore)
				if lf.rect.Empty() {
					lf.state = leafEnumerated
					continue
				}
				kept = append(kept, lf)
			}
			toQuery = kept
			if len(toQuery) == 0 {
				continue
			}
		}

		if used()+len(toQuery) > budget {
			return relation.Tuple{}, false, fmt.Errorf("%w (budget %d)", ErrBudget, budget)
		}
		if e.algo != Rerank {
			for _, lf := range toQuery {
				preds = append(preds, e.scratchRawRect(lf.rect).Predicate(e.st.pred))
			}
		}
		e.preds = preds
		results, err := e.st.exec.SearchBatch(ctx, preds)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		for i, res := range results {
			lf := toQuery[i]
			e.st.observe(res.Tuples)
			if !res.Overflow {
				lf.state = leafEnumerated
				continue
			}
			if err := e.refine(ctx, lf, budget-used()); err != nil {
				return relation.Tuple{}, false, err
			}
		}
	}
	return relation.Tuple{}, false, fmt.Errorf("core: engine failed to converge")
}

// pruneAndFrontier drops dead leaves and splits the unexplored leaves into
// the frontier (must be queried now) and the dormant rest. A leaf is dead
// when every tuple in it scores strictly below the last produced score —
// by the get-next invariant all such tuples have been produced. A leaf is
// dormant when no tuple in it can beat the current candidate.
// The two slices are the engine's scratch buffers, valid until the next call.
func (e *engine) pruneAndFrontier(candScore float64, haveCand bool) (frontier, dormant []*leaf) {
	frontier, dormant = e.frontier[:0], e.dormant[:0]
	live := e.leaves[:0]
	for _, lf := range e.leaves {
		if lf.state == leafEnumerated {
			// Fully known; its tuples live in the stash. Dropping the
			// leaf keeps the worklist small.
			continue
		}
		if lf.rect.LinearMax(e.weights) < e.st.lastScore {
			continue // dead: everything in it was already produced
		}
		live = append(live, lf)
		// One LinearMin evaluation per leaf per pass: the frontier test and
		// the dormant speculation sort both reuse it.
		lf.linMin = lf.rect.LinearMin(e.weights)
		if !haveCand || lf.linMin < candScore {
			frontier = append(frontier, lf)
		} else {
			dormant = append(dormant, lf)
		}
	}
	e.leaves = live
	e.frontier, e.dormant = frontier, dormant
	return frontier, dormant
}

// sortLeavesByLinearMin orders leaves by ascending best-corner score, using
// the linMin values precomputed by the prune pass.
func sortLeavesByLinearMin(ls []*leaf) {
	sort.Slice(ls, func(a, b int) bool { return ls[a].linMin < ls[b].linMin })
}

// tryDenseIndex resolves a leaf from the dense-region index when an indexed
// region covers it. Reports whether the leaf was resolved. Single-attribute
// rankings — every 1D stream, including the per-attribute sorted-access
// substreams of MD-TA — go through the index's cached per-attribute
// ordering instead of an ad-hoc sort.
// rr is the leaf's rect in raw coordinates.
func (e *engine) tryDenseIndex(ctx context.Context, lf *leaf, rr region.Rect) (bool, error) {
	// The dense index itself is context-free; the span is opened here,
	// the nearest layer that still holds the request context.
	tm := obs.FromContext(ctx).Start(obs.StageDenseTopIn)
	entry, ok := e.st.r.ix.Find(rr)
	if !ok {
		tm.End(obs.OutcomeMiss)
		return false, nil
	}
	if len(e.attrs) == 1 {
		tuples, err := e.st.r.ix.TopInByAttr(entry.ID, rr, e.st.pred, e.attrs[0], e.weights[0] < 0, nil, 0)
		if err != nil {
			tm.End(obs.OutcomeError)
			return false, err
		}
		e.st.observe(tuples)
	} else {
		// MD leaves can cover most of an entry; stream the shared resident
		// view in bounded chunks instead of materialising an O(entry)
		// output copy per resolution.
		chunk := make([]relation.Tuple, 0, 256)
		err := e.st.r.ix.ScanIn(entry.ID, rr, e.st.pred, nil, func(t relation.Tuple) bool {
			chunk = append(chunk, t)
			if len(chunk) == cap(chunk) {
				e.st.observe(chunk)
				chunk = chunk[:0]
			}
			return true
		})
		if err != nil {
			tm.End(obs.OutcomeError)
			return false, err
		}
		e.st.observe(chunk)
	}
	tm.End(obs.OutcomeHit)
	lf.state = leafEnumerated
	e.st.last.DenseHits++
	return true, nil
}

// refine handles an overflowing leaf according to the strategy.
func (e *engine) refine(ctx context.Context, lf *leaf, remaining int) error {
	if e.algo == Baseline {
		// The batch may have produced a better candidate; try clipping
		// first — the classic baseline narrowing step.
		if _, cs, ok := e.st.bestCandidate(); ok {
			clipped := clipBelowContour(lf.rect, e.weights, cs)
			if clipped.Empty() {
				lf.state = leafEnumerated
				return nil
			}
			if rectNarrower(clipped, lf.rect) {
				lf.rect = clipped
				return nil // re-query the narrowed region next iteration
			}
		}
	}
	dim := e.splittableDim(lf.rect)
	dense := dim < 0 // unsplittable: forced crawl for every strategy
	if !dense && e.algo == Rerank && lf.depth >= e.st.r.opt.DenseDepth {
		// The region kept more than system-k tuples through DenseDepth
		// halvings — evidence it is genuinely dense, so materialise it
		// once instead of splitting further. Depth-based detection is
		// robust to skewed domains, where any fixed width fraction either
		// never fires or fires on huge swaths of the space.
		dense = true
	}
	if dense {
		return e.crawlLeaf(ctx, lf, remaining)
	}
	mid := lf.rect.Ivs[dim].Midpoint()
	left, right := lf.rect.SplitAt(dim, mid)
	lf.rect, lf.depth = left, lf.depth+1
	e.leaves = append(e.leaves, &leaf{rect: right, depth: lf.depth})
	return nil
}

// splittableDim picks the relatively widest dimension that can still be
// halved, or -1.
func (e *engine) splittableDim(r region.Rect) int {
	best, bestW := -1, 0.0
	for i, iv := range r.Ivs {
		w := iv.Width()
		if w <= e.minSplit[i] {
			continue
		}
		rel := w
		if e.refWidths[i] > 0 {
			rel = w / e.refWidths[i]
		}
		if rel > bestW {
			best, bestW = i, rel
		}
	}
	return best
}

// crawlLeaf materialises a leaf completely. Rerank crawls without the user
// filter so the result is reusable, and publishes it to the shared dense
// index; the other strategies crawl the filtered region only.
func (e *engine) crawlLeaf(ctx context.Context, lf *leaf, remaining int) error {
	if remaining <= 0 {
		return fmt.Errorf("%w (crawl)", ErrBudget)
	}
	reusable := e.algo == Rerank
	var pred relation.Predicate
	rr := e.rawRect(lf.rect, nil)
	if reusable {
		pred = rr.Predicate(relation.Predicate{})
	} else {
		pred = rr.Predicate(e.st.pred)
	}
	tuples, cstats, err := crawl.All(ctx, e.st.exec, pred, crawl.Options{MaxQueries: remaining})
	if errors.Is(err, crawl.ErrDegraded) {
		// The source died mid-crawl and the resilience layer is serving
		// degraded: keep what the crawl really saw (observation only —
		// Complete is false, so nothing is admitted to the dense index or
		// any cache) and let the request finish best-effort instead of
		// failing. The response carries the degraded marker.
		e.st.last.DenseCrawls++
		e.st.last.CrawledTuples += int64(len(tuples))
		all := make([]relation.Tuple, 0, len(tuples))
		for _, t := range tuples {
			all = append(all, t)
		}
		e.st.observe(all)
		lf.state = leafEnumerated
		return nil
	}
	if err != nil {
		return err
	}
	e.st.last.DenseCrawls++
	e.st.last.CrawledTuples += int64(len(tuples))
	e.st.last.Saturated += int64(cstats.Saturated)
	all := make([]relation.Tuple, 0, len(tuples))
	for _, t := range tuples {
		all = append(all, t)
	}
	if reusable && cstats.Complete {
		if _, err := e.st.r.ix.Insert(rr, all); err != nil {
			return err
		}
	}
	e.st.observe(all)
	lf.state = leafEnumerated
	return nil
}

// clipBelowContour returns a rectangle covering {x ∈ r : f(x) < s} for the
// linear function f(x) = Σ w[i]·x[i]: along each dimension i the bound
// (s - min over r of Σ_{j≠i} w[j]x[j]) / w[i] caps the coordinate. The
// result is a superset of the sub-level set (sound for pruning) and never
// larger than r.
func clipBelowContour(r region.Rect, w []float64, s float64) region.Rect {
	total := r.LinearMin(w)
	out := r.Clone()
	for i, iv := range out.Ivs {
		var cornerTerm float64
		if w[i] >= 0 {
			cornerTerm = w[i] * iv.Lo
		} else {
			cornerTerm = w[i] * iv.Hi
		}
		others := total - cornerTerm
		bound := (s - others) / w[i]
		if w[i] > 0 {
			if bound < iv.Hi || (bound == iv.Hi && !iv.HiOpen) {
				out.Ivs[i].Hi, out.Ivs[i].HiOpen = bound, true
			}
		} else {
			if bound > iv.Lo || (bound == iv.Lo && !iv.LoOpen) {
				out.Ivs[i].Lo, out.Ivs[i].LoOpen = bound, true
			}
		}
	}
	return out
}

// rectNarrower reports whether a is strictly narrower than b on some
// dimension (same attrs assumed).
func rectNarrower(a, b region.Rect) bool {
	for i := range a.Ivs {
		ai, bi := a.Ivs[i], b.Ivs[i]
		if ai.Lo != bi.Lo || ai.Hi != bi.Hi || ai.LoOpen != bi.LoOpen || ai.HiOpen != bi.HiOpen {
			return true
		}
	}
	return false
}
