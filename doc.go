// Package repro is a from-scratch Go reproduction of "QR2: A Third-party
// Query Reranking Service Over Web Databases" (ICDE 2018 demo) and the
// algorithm suite it demonstrates from "Query Reranking as a Service"
// (VLDB 2016).
//
// The system answers ranked queries over a hidden web database — one that
// exposes only a filter-in, system-ranked top-k-out search interface —
// under any user-specified monotone linear ranking function, whether the
// database supports it or not.
//
// Because the service is third-party and multi-user, its operating cost is
// the number of top-k queries it issues to the web databases it rides on.
// Three caching layers attack that cost at different granularities: the
// per-user session cache (internal/session) memoizes seen tuples, the
// shared dense-region index (internal/dense) memoizes crawled regions, and
// the shared answer cache (internal/qcache) memoizes whole search answers
// across all users, coalescing identical in-flight searches into a single
// web-database query and serving strictly narrower predicates from
// complete (non-overflowing) answers by client-side filtering.
//
// The two shared caches each have one fixed byte budget. The answer caches
// of all sources form a single qcache.Pool — one set of LRU shards with
// namespace-prefixed keys under a global byte budget (qr2server
// -cache-bytes), so hot sources borrow capacity idle sources are not
// using, bounded by per-namespace floors. Each dense index keeps its
// decoded tuples resident under its own budget (qr2server
// -dense-resident-bytes) and re-reads evicted entries from its store.
// Session tuple caches are bounded by session count and idle TTL, not by
// bytes. The layers also feed each other: a completed region crawl admits
// the region's full match set into the answer cache (crawl.Admitter), so
// predicates inside a crawled region that fit under system-k are answered
// with zero web-database queries.
//
// Because QR2 is a third party with no insider access, every reused
// answer is only correct while the hidden database has not changed since
// it was cached. internal/epoch makes that a live concern instead of a
// boot-time one: each source has a versioned epoch (boot fingerprint +
// monotonic sequence number), and a change-detection prober periodically
// replays recorded sentinel queries against the live source, bumping the
// epoch on any answer-digest mismatch. Invalidation is region-scoped,
// not source-wide: each sentinel predicate covers a rect in attribute
// space (internal/region), and a mismatch on a bounded sentinel bumps
// only that rect — the epoch carries the scope, and every subscriber
// wipes surgically. The answer cache drops exactly the entries, crawl
// sets and persisted records whose key-decoded predicate rect intersects
// the bumped region (the intersection check over-approximates, so it can
// over-drop but never serve pre-change state) and keeps the disjoint
// rest resident; the dense index evicts only intersecting and straddling
// entries; admissions computed under an older epoch are installed only
// when provably disjoint from every region bumped since (the
// region-aware narrowing of the old equal-seq-or-refuse fence). Only the
// unbounded baseline sentinel, or an epoch gap whose skipped scopes were
// never seen, escalates to the wholesale wipe. Sentinel placement is
// traffic-derived: beyond the unbounded baseline, sentinels are recorded
// over the answer cache's hottest predicates, so detection coverage —
// and therefore wipe granularity — concentrates where reuse actually
// happens. The epoch seq persists next to the cache fingerprint, so
// restarts resume the lineage. Enable with qr2server -change-probe (and
// -sentinels for coverage); sentinel semantics and the false-negative
// tradeoff are documented in internal/epoch.
//
// Beyond one process, internal/cluster scales the answer cache across
// service replicas: a consistent-hash ring (virtual nodes over a static
// peer list) assigns every canonical predicate key, namespaced by source,
// exactly one owner replica. A replica serving a key it owns uses its
// local pool as usual; for a foreign-owned key it first checks local
// residency (crawl sets stay replica-local), then proxies the cache
// lookup to the owner (residency-only, never a web query), and on an
// owner miss pays the web-database query itself and asynchronously
// pushes the answer to the owner, so the cluster never re-pays for an
// answer any replica already holds. Lookups and pushes have one wire
// form: binary frames on persistent connections opened by an Upgrade on
// the peer's ordinary listener, concurrent lookups to one owner
// coalescing into batch frames; ring membership, epochs and metrics
// snapshots are plain GETs (/cluster/ring, /cluster/obs, /healthz).
// Failure semantics: per-peer health probes with backoff exclude dead
// peers from the ring (their key ranges move to ring successors and snap
// back on recovery), and a forward whose connection dies mid-flight is
// replayed once on a fresh one; if that fails too the peer is indicted
// and the request served through the local pool — a peer outage
// degrades query cost, never availability. Answers admitted off-owner during an outage are
// tracked as strays and re-homed: when the owner recovers, each stray is
// pushed to it and the local copy released, restoring the exactly-once
// invariant without waiting for LRU aging. Source epochs ride the same
// protocol: every peer message carries (source, epoch seq) plus the
// epoch's region scope when it has one, a replica seeing a higher seq
// adopts it (running the same wipes — partial when the adoption is
// exactly one ahead and scoped, full when a gap hides unseen scopes), a
// put tagged with a lower seq is rejected as stale, and the probe loop
// gossips epochs over /cluster/ring so a bump converges even across
// replicas with no shared traffic. Replicas join with qr2server
// -peers/-self.
//
// # Failure semantics
//
// The web databases the service rides on are third-party systems that
// stall, reset connections, rate-limit and die without notice, so every
// raw web-database call goes through a per-source fault policy
// (internal/resilience) layered below the caches and the ring — cache
// hits and peer forwards never spend resilience budget. The escalation
// is: each attempt runs under its own deadline (-source-timeout,
// propagated via context); transport-level failures — timeouts,
// connection resets, 5xx/429 responses — are retried with capped
// exponential backoff and jitter (-source-retries), while application
// errors and other 4xx are returned immediately and prove the transport
// healthy; a run of consecutive transport failures
// (-breaker-threshold) opens the source's circuit breaker, which
// rejects calls instantly for -breaker-open before admitting
// -breaker-probes half-open probes — one probe success re-closes the
// circuit, one failure re-opens it. The layer caps neither concurrency
// nor rate: the one bound on how many web queries run at once is the
// engine's per-batch fan-out (core.Options.MaxParallel, default 8).
//
// While a breaker is open the service keeps answering (-degraded-serve,
// default on): short-circuited calls return an empty answer marked
// Degraded, so a query is assembled from whatever the answer cache,
// crawl sets and dense regions still hold, and the response carries
// degraded/stale-ok markers instead of an error. Degraded answers are
// quarantined from every durable layer — never admitted to the answer
// cache, never counted as a crawl leaf (a fabricated empty is
// indistinguishable from a real underflow, so a mid-crawl degradation
// aborts the crawl-set admission), never pushed to peers, and the
// change prober treats them as "source unavailable" (probing pauses
// with backoff rather than digesting a fabricated baseline, which would
// bump the epoch and wipe every cache the moment the source recovered).
// Recovery is automatic: probe traffic re-closes the breaker, and
// post-recovery answers are identical to a cold run's. The breaker
// state machine, every attempt/retry/failure/degraded counter and
// qr2_degraded_serves_total are exported on /api/stats and /metrics;
// internal/faultinject provides the stall/reset/status-burst injection
// harness the chaos tests and experiment S9 drive the whole ladder
// with (wdbserver -fault).
//
// The dense-index read path is memory-speed and concurrent: covering
// lookups go through a spatial directory (a packed R-tree per attribute
// signature) under a read lock, decoded tuples stay resident under a
// configurable byte budget with LRU eviction back to the kvstore,
// per-attribute tuple orderings are computed once per entry and reused by
// every 1D-Rerank substream, and enumeration-style consumers stream wide
// queries through the ScanIn iterator instead of copying an entry-sized
// output slice. Operational counters for every layer — including ring
// membership and forward/fallback traffic — are exported on GET
// /api/stats (JSON) and GET /metrics (Prometheus text).
//
// Observability goes below counters: internal/obs threads a per-request
// trace through the whole answer path (one span per stage — pool lookup,
// containment, dense TopIn, ring route, peer forward, each web-database
// round trip, rerank, epoch fence), derives the request's decision path
// from span evidence, aggregates latencies into lock-free log-bucketed
// histograms exported as Prometheus histogram families on /metrics, and
// keeps a ring of recent plus slow traces served at GET /api/trace
// (JSON) and GET /debug/requests (human-readable). Every /api/query
// response carries its trace ID; request IDs propagate to peer forwards
// via the X-QR2-Request header so one lookup is correlatable across
// replicas. Tracing is on by default and costs ~6 ns per hook when
// disabled (BenchmarkSpanDisabled in internal/obs; -trace-buffer -1
// disables, -slow-query gates the slow log).
//
// # Distributed tracing & fleet metrics
//
// The observability plane is cluster-wide. Traces stitch across
// replicas: when a query forwards through the ring (or a wdbserver
// /search runs server-side spans), the remote replica exports its span
// subtree in compact wire form inside the response, and the caller
// grafts it under its own peer_forward span — replica-attributed and
// depth-nested — so /api/trace, /debug/requests and `qr2cli obs` show
// one end-to-end tree no matter how many processes served the request.
// Histogram buckets on qr2_request_latency_seconds carry OpenMetrics
// exemplars: the trace ID of the slowest observation to land in each
// bucket over the last minute, linking a latency outlier straight to
// its stitched trace at /api/trace?id=...
//
// Metrics roll up the same way: every replica serves its counters and
// histograms as a mergeable snapshot on GET /cluster/obs, a poller
// riding the gossip tick merges the fleet view (identical power-of-two
// buckets make the merge exact), and the result is exported as the
// qr2_fleet_* families plus the fleet section of /api/stats. A
// sliding-window SLO tracker over the merged snapshots accounts the
// paper's query-cost metric fleet-wide — web queries per answer,
// degraded-serve fraction, forward latency — as multi-window burn
// rates (qr2_slo_*), so a short burst on one replica is visible even
// when every per-replica cumulative page stays under the objective.
// `qr2cli obs` prints the merged fleet percentiles and the slowest
// stitched traces from the terminal. Experiment S11 demonstrates all
// three layers on a live three-replica ring.
//
// Fleet and SLO metric families (all on every replica's /metrics):
//
//	qr2_fleet_replicas                          gauge      replicas merged into the current fleet view
//	qr2_fleet_snapshot_age_seconds              gauge      age of that merged snapshot
//	qr2_fleet_traces_total                      counter    completed request traces fleet-wide
//	qr2_fleet_slow_traces_total                 counter    traces at or over the slow-query threshold
//	qr2_fleet_web_queries_total                 counter    web-database queries spent fleet-wide
//	qr2_fleet_replica_up{replica}               gauge      1 if the replica's snapshot was merged
//	qr2_fleet_replica_traces_total{replica}     counter    per-replica trace count within the fleet view
//	qr2_fleet_replica_slow_traces_total{replica} counter   per-replica slow-trace count
//	qr2_fleet_replica_web_queries_total{replica} counter   per-replica web-query spend
//	qr2_fleet_request_latency_seconds{path}     histogram  whole-request latency by answer path, merged
//	qr2_fleet_stage_latency_seconds{stage,outcome} histogram  span latency by stage/outcome, merged
//	qr2_slo_objective{slo}                      gauge      configured objective per SLO
//	qr2_slo_burn_rate{slo,window}               gauge      actual/objective over each sliding window
//	qr2_slo_breaches_total{slo,window}          counter    windows observed with burn rate > 1
//
// SLO objectives (-slo-queries-per-answer, -slo-degraded-fraction,
// -slo-forward-p99 on qr2server) default to 4 web queries per answer, a
// 5% degraded fraction and a 250ms forward p99 over 1m/5m/30m windows.
//
// Profiling quickstart: both servers take -debug-addr, which serves
// net/http/pprof on a private side mux (never the public listener):
//
//	qr2server -debug-addr localhost:6060 ...
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://localhost:6060/debug/pprof/heap
//	curl -s 'http://localhost:6060/debug/pprof/trace?seconds=5' > trace.out && go tool trace trace.out
//
// Pair a profile with GET /debug/requests on the public address to match
// CPU time against the stages of the slow requests that spent it.
//
// The experiment index — which ID reproduces which figure or scenario —
// is the ID table in internal/experiments/experiments.go; qr2bench -list
// prints the IDs and qr2bench -run regenerates their tables. The
// benchmark file bench_test.go in this directory regenerates every
// figure and demonstration scenario of the paper. End-to-end latency,
// throughput and CPU numbers of record come from bench/ (see
// bench/README.md and BENCHMARK.json).
package repro
