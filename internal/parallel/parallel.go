// Package parallel routes every query the reranking algorithms issue to the
// hidden web database, adding the two facilities the QR2 paper's §II-B
// ("Parallel processing") requires:
//
//   - bounded parallel execution of query batches, used for the paper's
//     parallel verification queries and independent subspace searches; and
//   - per-iteration accounting: how many queries each iteration issued and
//     whether they went out in parallel, which is exactly the series plotted
//     in the paper's Fig 2, plus a simulated wall-clock that charges one
//     round-trip latency per wave of parallel queries (the statistics panel
//     of Fig 4).
//
// An Executor with parallelism disabled degrades to sequential execution
// with identical results, enabling the paper's parallel-vs-sequential
// ablation.
package parallel

import (
	"context"
	"sync"
	"time"

	"repro/internal/hidden"
	"repro/internal/relation"
)

// Stats aggregates executor activity. BatchSizes is the per-iteration query
// count series of Fig 2.
type Stats struct {
	// Queries is the total number of queries issued to the web database.
	Queries int64
	// Batches is the number of iterations (waves of queries).
	Batches int64
	// ParallelBatches counts iterations that issued more than one query.
	ParallelBatches int64
	// QueriesInParallel counts queries issued in parallel batches.
	QueriesInParallel int64
	// MaxBatch is the largest single batch.
	MaxBatch int
	// BatchSizes records every batch size in order.
	BatchSizes []int
	// SimElapsed is the simulated wall-clock: one PerQueryLatency per wave
	// of at most MaxParallel queries when parallelism is on, one per query
	// when off.
	SimElapsed time.Duration
}

// ParallelQueryFraction returns the fraction of queries submitted in
// parallel batches — the headline number of the paper's Fig 2 (">90%" for
// 3D, "97%" for 2D).
func (s Stats) ParallelQueryFraction() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.QueriesInParallel) / float64(s.Queries)
}

// Executor issues query batches against a hidden database.
type Executor struct {
	db          hidden.DB
	maxParallel int
	parallel    bool
	latency     time.Duration

	mu    sync.Mutex
	stats Stats
}

// Option configures an Executor.
type Option func(*Executor)

// WithParallel enables or disables parallel batch execution (default on).
func WithParallel(enabled bool) Option {
	return func(e *Executor) { e.parallel = enabled }
}

// WithMaxParallel bounds the number of in-flight queries per batch
// (default 8, matching a polite web client).
func WithMaxParallel(n int) Option {
	return func(e *Executor) {
		if n > 0 {
			e.maxParallel = n
		}
	}
}

// WithSimLatency sets the simulated per-query round-trip latency used for
// Stats.SimElapsed. It does not sleep; pair it with hidden.WithLatency to
// slow down the database for interactive demos.
func WithSimLatency(d time.Duration) Option {
	return func(e *Executor) { e.latency = d }
}

// New wraps a hidden database.
func New(db hidden.DB, opts ...Option) *Executor {
	e := &Executor{db: db, maxParallel: 8, parallel: true}
	for _, o := range opts {
		o(e)
	}
	return e
}

// DB returns the wrapped database.
func (e *Executor) DB() hidden.DB { return e.db }

// Parallel reports whether parallel execution is enabled.
func (e *Executor) Parallel() bool { return e.parallel }

// Search issues a single query (an iteration of size one).
func (e *Executor) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	res, err := e.SearchBatch(ctx, []relation.Predicate{p})
	if err != nil {
		return hidden.Result{}, err
	}
	return res[0], nil
}

// SearchBatch issues one iteration of queries. With parallelism enabled the
// queries run concurrently (at most MaxParallel in flight) and the whole
// batch is charged the latency of its slowest wave; otherwise they run one
// by one. Results align with preds. The first error cancels the rest.
func (e *Executor) SearchBatch(ctx context.Context, preds []relation.Predicate) ([]hidden.Result, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	results := make([]hidden.Result, len(preds))
	var err error
	if e.parallel && len(preds) > 1 {
		err = e.runParallel(ctx, preds, results)
	} else {
		for i, p := range preds {
			results[i], err = e.db.Search(ctx, p)
			if err != nil {
				break
			}
		}
	}
	e.record(len(preds))
	if err != nil {
		return nil, err
	}
	return results, nil
}

func (e *Executor) runParallel(ctx context.Context, preds []relation.Predicate, results []hidden.Result) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, e.maxParallel)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := range preds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errMu.Lock()
				if firstErr == nil {
					firstErr = ctx.Err()
				}
				errMu.Unlock()
				return
			}
			res, err := e.db.Search(ctx, preds[i])
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	return firstErr
}

// record books one iteration of n queries into the stats.
func (e *Executor) record(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &e.stats
	s.Queries += int64(n)
	s.Batches++
	s.BatchSizes = append(s.BatchSizes, n)
	if n > s.MaxBatch {
		s.MaxBatch = n
	}
	if e.parallel && n > 1 {
		s.ParallelBatches++
		s.QueriesInParallel += int64(n)
		waves := (n + e.maxParallel - 1) / e.maxParallel
		s.SimElapsed += time.Duration(waves) * e.latency
	} else {
		s.SimElapsed += time.Duration(n) * e.latency
	}
}

// Stats returns a copy of the accumulated statistics.
func (e *Executor) Stats() Stats { return e.StatsSince(0) }

// Counters returns the accumulated statistics without the BatchSizes
// history. It does not allocate, so per-iteration callers can poll it.
func (e *Executor) Counters() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.stats
	out.BatchSizes = nil
	return out
}

// StatsSince returns a copy of the accumulated statistics whose BatchSizes
// holds only the batches after the first from (nil when there are none).
func (e *Executor) StatsSince(from int) Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.stats
	out.BatchSizes = nil
	if from < len(e.stats.BatchSizes) {
		out.BatchSizes = append([]int(nil), e.stats.BatchSizes[from:]...)
	}
	return out
}

// Reset clears the accumulated statistics.
func (e *Executor) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
}
