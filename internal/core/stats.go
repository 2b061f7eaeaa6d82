package core

import (
	"time"

	"repro/internal/parallel"
)

// OpStats describes the work one or more get-next operations performed —
// the data behind QR2's statistics panel (Fig 4) and the parallelism plot
// (Fig 2).
type OpStats struct {
	// Queries issued to the web database.
	Queries int64
	// Batches is the number of query iterations (waves).
	Batches int64
	// ParallelBatches counts iterations with more than one query.
	ParallelBatches int64
	// QueriesInParallel counts queries submitted in parallel batches.
	QueriesInParallel int64
	// BatchSizes is the per-iteration query count series (Fig 2).
	BatchSizes []int
	// SimElapsed is simulated wall-clock (one latency per parallel wave).
	SimElapsed time.Duration
	// Elapsed is real time spent inside Next.
	Elapsed time.Duration
	// DenseHits counts regions answered from the dense index with no
	// web database queries.
	DenseHits int64
	// DenseCrawls counts regions crawled into the dense index.
	DenseCrawls int64
	// CrawledTuples counts tuples materialised by crawls.
	CrawledTuples int64
	// CacheCandidates counts session-cache tuples used as warm candidates.
	CacheCandidates int64
	// Produced counts tuples returned to the user.
	Produced int64
	// Saturated counts regions whose excess identical tuples are
	// unreachable through the interface (see crawl.Stats).
	Saturated int64
}

// ParallelQueryFraction is the share of queries submitted in parallel
// batches — the Fig 2 headline number.
func (s OpStats) ParallelQueryFraction() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.QueriesInParallel) / float64(s.Queries)
}

// add accumulates o into s.
func (s *OpStats) add(o OpStats) {
	s.Queries += o.Queries
	s.Batches += o.Batches
	s.ParallelBatches += o.ParallelBatches
	s.QueriesInParallel += o.QueriesInParallel
	s.BatchSizes = append(s.BatchSizes, o.BatchSizes...)
	s.SimElapsed += o.SimElapsed
	s.Elapsed += o.Elapsed
	s.DenseHits += o.DenseHits
	s.DenseCrawls += o.DenseCrawls
	s.CrawledTuples += o.CrawledTuples
	s.CacheCandidates += o.CacheCandidates
	s.Produced += o.Produced
	s.Saturated += o.Saturated
}

// execDelta converts the difference of two executor snapshots into OpStats
// fields. after.BatchSizes must hold only the batches since before
// (Executor.StatsSince).
func execDelta(before, after parallel.Stats) OpStats {
	return OpStats{
		Queries:           after.Queries - before.Queries,
		Batches:           after.Batches - before.Batches,
		ParallelBatches:   after.ParallelBatches - before.ParallelBatches,
		QueriesInParallel: after.QueriesInParallel - before.QueriesInParallel,
		BatchSizes:        after.BatchSizes,
		SimElapsed:        after.SimElapsed - before.SimElapsed,
	}
}
