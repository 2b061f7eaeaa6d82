// Package service implements the QR2 web service — the central component of
// the paper's architecture (Fig 1).
//
// Users connect, pick a data source, and submit a query made of the three
// UI sections of Fig 3: a filtering section (range and membership filters),
// a ranking section (an expression such as "price - 0.3*sqft", equivalent
// to the paper's weight sliders), and a results section with the get-next
// button and a statistics panel (Fig 4) reporting query cost and processing
// time.
//
// The service keeps one session per user (the seen-tuple cache plus the
// open get-next cursors), shares one dense-region index per data source
// across all users, and processes web database queries in parallel.
//
// # Shared answer cache
//
// Each data source can additionally be fronted by an internal/qcache
// answer cache (SourceConfig.Cache), installed once per source and shared
// by every session. The cache decorates the source's hidden.DB, so the
// reranking engines underneath are unaware of it: repeated top-k searches
// — the same user paging, or different users exploring overlapping
// regions — are answered locally, and identical searches in flight at the
// same moment are coalesced into a single web-database query. This sits
// below the per-user session cache (which memoizes seen tuples, not
// answers) and beside the dense-region index (which memoizes crawled
// regions): the three layers attack the paper's query-cost metric at the
// tuple, answer and region granularities respectively. Per-source cache
// effectiveness is reported on GET /api/stats and in every statistics
// panel.
//
// In shared-pool mode (Config.SharedCachePool) every source's cache is a
// namespace of one process-wide qcache.Pool under a single global byte
// budget (Config.CachePoolBytes), so hot sources borrow cache capacity
// idle ones are not using. Each dense index's tuple residency has its own
// fixed budget (SourceConfig.DenseResidentBytes). Complete region crawls
// refill the pool (crawl.Admitter), so predicates inside a crawled region
// are served client-side.
//
// In cluster mode (Config.SelfID/Peers) the answer caches additionally
// join a consistent-hash replica ring (internal/cluster): every canonical
// predicate key has one owner replica, lookups for foreign-owned keys are
// proxied to the owner, and answers computed on behalf of an owner are
// pushed to it — one cached answer cluster-wide. Peer death degrades to
// local serving; /api/stats and /metrics expose ring membership and the
// ownership/forward/fallback counters.
//
// # Observability
//
// Every request runs under an internal/obs trace: one span per pipeline
// stage (canonicalize, pool lookup, containment, crawl set, dense TopIn,
// ring route, peer forward, web query, crawl, rerank, epoch fence) with
// an outcome tag, folded at completion into lock-free latency histograms
// per stage+outcome and per decision path. /metrics exposes them as
// Prometheus histogram families (qr2_stage_latency_seconds,
// qr2_request_latency_seconds); GET /api/trace serves the ring of recent
// completed traces as JSON and GET /debug/requests as a human-readable
// table, with a threshold-gated slow-query log on top (Config.SlowQuery).
// Each request carries an ID — minted here or taken from an inbound
// X-QR2-Request header — that peer forwards and web-database calls
// propagate, so one logical lookup is correlatable across replicas.
// Structured request logging goes to Config.Logger (log/slog).
//
// Endpoints:
//
//	GET  /api/sources        data sources, their schemas, popular functions
//	POST /api/query          run a reranking query, returns page 1 + stats
//	POST /api/next           next page for a previous query (qid)
//	GET  /api/stats          per-source cache and dense-index statistics
//	GET  /api/trace          recent request traces, JSON (?n=, ?slow=1, ?id=)
//	GET  /debug/requests     recent and slow requests, human-readable
//	GET  /metrics            counters plus per-stage latency histograms,
//	                         Prometheus text format
//	GET  /cluster/v2         peer-protocol session Upgrade (cluster mode)
//	GET  /cluster/ring, /cluster/obs  ring membership + epochs, obs snapshot
//	GET  /                   minimal HTML UI over the same operations
//	POST /ui/query, /ui/next HTML form variants
//	GET  /healthz            liveness
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/session"
	"repro/internal/wdbhttp"
)

// SessionCookie is the name of the QR2 session cookie.
const SessionCookie = "qr2_session"

// SourceConfig describes one web database behind the service.
type SourceConfig struct {
	// DB is the database's public interface (local simulator or an
	// wdbhttp.Client for a remote one).
	DB hidden.DB
	// DenseStore persists the source's dense-region index. Nil means a
	// fresh in-memory store.
	DenseStore kvstore.Store
	// DenseResidentBytes sizes the dense index's decoded-tuple residency
	// (zero = dense.DefaultResidentBytes, negative disables residency).
	DenseResidentBytes int64
	// Cache configures the shared answer cache installed in front of DB
	// and used by every session. Nil disables it.
	Cache *qcache.Config
	// Popular lists suggested ranking expressions shown in the UI.
	Popular []string
}

// Config configures the service.
type Config struct {
	// Sources maps source names to their configuration.
	Sources map[string]SourceConfig
	// Algorithm is the default get-next strategy (default core.Rerank);
	// requests may override it with the "algo" field.
	Algorithm core.Algorithm
	// SessionTTL expires idle sessions (default 30 minutes).
	SessionTTL time.Duration
	// DefaultPageSize is the results-per-page default (default 10).
	DefaultPageSize int
	// MaxPageSize caps the "k" request field (default 100).
	MaxPageSize int
	// MaxParallel, SimLatency, DenseDepth and MaxQueriesPerNext are
	// forwarded to core.Options.
	MaxParallel       int
	SimLatency        time.Duration
	DenseDepth        int
	MaxQueriesPerNext int
	// SharedCachePool installs every source's answer cache as a namespace
	// of one process-wide qcache.Pool under a single global byte budget
	// (CachePoolBytes), so hot sources borrow cache capacity idle sources
	// are not using. Per-source Cache.MaxBytes is ignored in pool mode.
	SharedCachePool bool
	// CachePoolBytes sizes the pooled answer cache when SharedCachePool
	// is set (0 = qcache.DefaultMaxBytes).
	CachePoolBytes int64
	// SelfID and Peers join this replica to a consistent-hash cluster
	// (internal/cluster): Peers maps every replica id — including SelfID —
	// to its base URL, and each source's answer cache becomes one ring
	// namespace, so every cached answer has exactly one owner replica.
	// Queries for foreign-owned keys proxy the cache lookup to the owner
	// and, on an owner miss, pay the web query locally and push the
	// answer to the owner. SelfID and Peers must be set together (setting
	// one without the other is a configuration error); leaving both empty
	// disables clustering, and a single-entry peer list short-circuits to
	// the plain cache. Requires cached sources.
	SelfID string
	Peers  map[string]string
	// ClusterProbeInterval paces the peer health prober (default 5s).
	// The prober itself is started by running Cluster().Start.
	ClusterProbeInterval time.Duration
	// ChangeProbeInterval enables live change detection: each source is
	// probed with sentinel queries on this period (StartChangeProbes runs
	// the loops), and a digest mismatch bumps the source's epoch — wiping
	// its answer-cache namespace (including crawl-admitted sets) and its
	// dense index, and, in cluster mode, propagating through the ring.
	// Zero disables the loops; ChangeProbe still drives probes manually.
	ChangeProbeInterval time.Duration
	// ChangeSentinels is the number of sentinel queries recorded per
	// source (default epoch.DefaultSentinels).
	ChangeSentinels int
	// TraceBuffer sizes the ring of recent completed request traces
	// served by /api/trace and /debug/requests (0 = 256 traces).
	// Negative disables tracing entirely: no spans are recorded, the
	// latency histograms stay empty and the trace endpoints return 503.
	TraceBuffer int
	// SlowQuery is the slow-query threshold: requests at or above it
	// enter a dedicated ring (GET /api/trace?slow=1) and emit one warning
	// log line. Zero disables the slow log.
	SlowQuery time.Duration
	// SLO configures the query-cost service-level objectives tracked
	// over the fleet roll-up (qr2_slo_* burn rates on /metrics and the
	// fleet section of /api/stats). Zero fields take the obs defaults.
	// Ignored with tracing disabled.
	SLO obs.SLOObjectives
	// Resilience is the per-source fault policy wrapped around every raw
	// web-database call (internal/resilience): per-attempt deadlines,
	// capped-backoff retries of transport-level failures and a circuit
	// breaker. The zero value applies the library defaults — harmless for
	// healthy sources; set negative fields to disable individual knobs.
	// With Resilience.DegradedServe set, a request that would otherwise fail
	// on an open breaker is answered from whatever the cache, crawl-set
	// and dense layers still hold, marked degraded/stale-ok, instead of
	// erroring. The wrapper sits below the answer cache and the replica
	// ring, so cache hits and peer forwards never touch the breaker.
	Resilience resilience.Policy
	// PeerRetry is the retry policy for cluster peer RPCs (forwards and
	// answer pushes). The zero value keeps single-attempt RPCs.
	PeerRetry resilience.Retry
	// Logger receives one structured line per request (log/slog). Nil
	// discards logs.
	Logger *slog.Logger
}

// Server is the QR2 HTTP service.
type Server struct {
	cfg      Config
	sessions *session.Manager
	sources  map[string]*source
	pool     *qcache.Pool    // non-nil in shared-pool mode
	node     *cluster.Node   // non-nil when SelfID/Peers join a replica ring
	epochs   *epoch.Registry // the source-epoch lifecycle, always present
	probers  map[string]*epoch.Prober
	obsC     *obs.Collector  // nil when tracing is disabled (TraceBuffer < 0)
	slo      *obs.SLOTracker // nil when tracing is disabled
	log      *slog.Logger
	mux      *http.ServeMux
}

// source is the shared per-database state: the answer cache, the dense
// index and the discovered normalisation, all shared by every user
// session.
type source struct {
	name    string
	db      hidden.DB // the served database; the cache when one is configured
	cache   *qcache.Cache
	ix      *dense.Index
	res     *resilience.Source // fault policy shared by serving path and prober
	popular []string

	// discMu serialises normalisation discovery, which runs web queries;
	// normMu guards only the norm pointer, so an epoch bump that drops it
	// never waits on a discovery in flight.
	discMu sync.Mutex
	normMu sync.Mutex
	norm   *ranking.Normalization
}

// cursor is an open get-next stream owned by one session.
type cursor struct {
	mu        sync.Mutex
	stream    *core.Stream
	source    *source
	k         int
	page      int
	exhausted bool
}

// New builds the service, opening (and boot-verifying) each source's dense
// index.
func New(cfg Config) (*Server, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("service: no sources configured")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = core.Rerank
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.DefaultPageSize <= 0 {
		cfg.DefaultPageSize = 10
	}
	if cfg.MaxPageSize <= 0 {
		cfg.MaxPageSize = 100
	}
	s := &Server{
		cfg:      cfg,
		sessions: session.NewManager(cfg.SessionTTL, 0),
		sources:  make(map[string]*source),
		epochs:   epoch.NewRegistry(),
		probers:  make(map[string]*epoch.Prober),
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
	}
	if s.log == nil {
		s.log = discardLogger()
	}
	if cfg.TraceBuffer >= 0 {
		s.obsC = obs.NewCollector(obs.CollectorConfig{
			Buffer: cfg.TraceBuffer,
			Slow:   cfg.SlowQuery,
			Logger: s.log,
		})
		s.slo = obs.NewSLOTracker(cfg.SLO)
	}
	anyCached := false
	for _, sc := range cfg.Sources {
		if sc.Cache != nil {
			anyCached = true
		}
	}
	if cfg.SharedCachePool && anyCached {
		s.pool = qcache.NewPool(qcache.PoolConfig{MaxBytes: cfg.CachePoolBytes})
	}
	if cfg.SelfID != "" || len(cfg.Peers) > 0 {
		if !anyCached {
			return nil, fmt.Errorf("service: cluster mode (SelfID/Peers) requires at least one cached source")
		}
		cc := cluster.Config{
			Self:          cfg.SelfID,
			Peers:         cfg.Peers,
			ProbeInterval: cfg.ClusterProbeInterval,
			Epochs:        s.epochs,
			Retry:         cfg.PeerRetry,
		}
		if s.obsC != nil {
			// The node polls the fleet's /cluster/obs endpoints each
			// gossip tick; every merged roll-up feeds the SLO tracker.
			cc.Snapshot = func() *obs.Snapshot { return s.obsC.Snapshot(cfg.SelfID) }
			cc.OnFleetSnapshot = func(m *obs.Snapshot) { s.slo.Offer(m, time.Now()) }
		}
		node, err := cluster.New(cc)
		if err != nil {
			return nil, err
		}
		s.node = node
	}
	for name, sc := range cfg.Sources {
		store := sc.DenseStore
		if store == nil {
			store = kvstore.NewMemory()
		}
		ix, err := dense.Open(sc.DB.Schema(), store, dense.WithResidentBytes(sc.DenseResidentBytes))
		if err != nil {
			return nil, fmt.Errorf("service: open dense index for %q: %w", name, err)
		}
		// The resilience wrapper sits directly on the raw database — below
		// the answer cache and the replica ring — so only true web-database
		// round trips spend retry budget or indict the breaker; cache hits
		// and peer forwards bypass it entirely. One Source backs both the
		// serving path and the change prober, so they observe the same
		// breaker and recover together.
		res := resilience.NewSource(cfg.Resilience)
		raw := res.Wrap(sc.DB)
		db := raw
		var cache *qcache.Cache
		if sc.Cache != nil {
			// Every cached source joins the live epoch lifecycle: the
			// namespace registers its boot epoch and wipes on bumps.
			cc := *sc.Cache
			cc.Epochs = s.epochs
			if s.pool != nil {
				cache, err = s.pool.Namespace(name, raw, cc)
			} else {
				cache, err = qcache.New(raw, cc)
			}
			if err != nil {
				return nil, fmt.Errorf("service: open answer cache for %q: %w", name, err)
			}
			db = cache
			if s.node != nil {
				// Ring routing sits above the cache: owned keys hit the
				// local pool, foreign keys proxy to their owner replica and
				// on owner misses query the raw (resilient) database
				// directly, so the answer is admitted once, at its owner.
				db = s.node.Source(name, cache, raw)
			}
		}
		// Every source has an epoch even without a cache (the dense index
		// alone is worth invalidating); cached sources refine the seq
		// from their persisted record inside Namespace above.
		s.epochs.Register(name, nil, 1)
		// Boot verification for the dense index: the answer cache
		// recovered the source's epoch lineage above; a dense store whose
		// recorded epoch is behind it holds crawls of a source version
		// that no longer exists — a runtime wipe whose store cleanup
		// failed, or a change detected before a restart — and is wiped
		// now, before it can serve.
		if seq := s.epochs.Seq(name); seq > ix.EpochSeq() {
			if err := ix.Wipe(); err != nil {
				return nil, fmt.Errorf("service: wipe stale dense index for %q: %w", name, err)
			}
			if err := ix.SetEpoch(seq); err != nil {
				return nil, fmt.Errorf("service: record dense epoch for %q: %w", name, err)
			}
		}
		// An epoch bump also invalidates the dense index: its entries are
		// authoritative complete crawls of the pre-change source. The
		// answer-cache namespace subscribed first (inside Namespace), so
		// the wipe order on a bump is cache, then dense index. A
		// region-scoped bump evicts only the entries intersecting the
		// bumped rect; an unscoped bump wipes everything. The epoch
		// marker is recorded only after a fully successful wipe — on a
		// store failure the marker stays behind and the next boot
		// re-wipes (the in-memory state is cleared unconditionally).
		s.epochs.Subscribe(name, func(e epoch.Epoch) {
			var werr error
			if e.Scope != nil {
				werr = ix.WipeRegion(*e.Scope)
			} else {
				werr = ix.Wipe()
			}
			if werr == nil {
				_ = ix.SetEpoch(e.Seq)
			}
		})
		// The change-detection prober replays sentinel queries against
		// the raw database — probing through the cache would observe the
		// cache, not the live source. It probes through the resilience
		// wrapper so a dead source pauses probing (ErrPaused backoff)
		// instead of spamming errors, and its successful probes double as
		// the half-open traffic that re-closes the breaker. Cached
		// sources feed their hottest canonical predicates back into
		// sentinel placement, so probing concentrates where reuse — and
		// therefore staleness risk — actually is.
		pc := epoch.ProberConfig{
			Sentinels:   cfg.ChangeSentinels,
			Unavailable: resilience.IsUnavailable,
		}
		if cache != nil {
			pc.Hot = cache.HotPredicates
		}
		s.probers[name] = epoch.NewProber(s.epochs, name, raw, pc)
		src := &source{name: name, db: db, cache: cache, ix: ix, res: res, popular: sc.Popular}
		// Any bump, scoped or not, can move an attribute's extreme, so the
		// discovered normalisation goes with it and is rediscovered on the
		// next query. The sessions' cached tuples of the source are
		// pre-bump values, which would seed new streams as candidates.
		s.epochs.Subscribe(name, func(epoch.Epoch) {
			src.normMu.Lock()
			src.norm = nil
			src.normMu.Unlock()
			s.sessions.DropCachedTuples(name)
		})
		s.sources[name] = src
	}
	if s.node != nil {
		s.node.Register(s.mux)
	} else if s.obsC != nil {
		// Standalone replicas serve /cluster/obs themselves so the
		// snapshot endpoint is uniform across deployment sizes (the
		// cluster node mounts it in cluster mode).
		s.mux.HandleFunc("GET /cluster/obs", s.handleClusterObs)
	}
	s.mux.HandleFunc("GET /api/sources", s.handleSources)
	s.mux.HandleFunc("POST /api/query", s.handleQuery)
	s.mux.HandleFunc("POST /api/next", s.handleNext)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	// The trace endpoints are mounted even with tracing disabled: the
	// nil collector's handlers answer 503, which beats a generic 404 when
	// an operator wonders why /api/trace is empty.
	s.mux.HandleFunc("GET /api/trace", s.obsC.ServeTraces)
	s.mux.HandleFunc("GET /debug/requests", s.obsC.ServeDebug)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.registerUI()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Sessions exposes the session manager (for sweeping by the daemon).
func (s *Server) Sessions() *session.Manager { return s.sessions }

// Cluster exposes the replica-ring node, nil outside cluster mode. The
// daemon starts its health prober (Cluster().Start); tests drive probes
// deterministically with CheckNow.
func (s *Server) Cluster() *cluster.Node { return s.node }

// Epochs exposes the source-epoch registry: current epoch per source,
// with subscriber fan-out on bumps.
func (s *Server) Epochs() *epoch.Registry { return s.epochs }

// ChangeProbe replays one source's sentinel queries immediately,
// reporting whether a change was detected (and the epoch bumped, with
// every wipe completed). Operators and tests use it to drive detection
// deterministically; production runs StartChangeProbes instead.
func (s *Server) ChangeProbe(ctx context.Context, source string) (bumped bool, err error) {
	p, ok := s.probers[source]
	if !ok {
		return false, fmt.Errorf("service: unknown source %q", source)
	}
	return p.Probe(ctx)
}

// StartChangeProbes launches the per-source change-detection loops on
// Config.ChangeProbeInterval until ctx is cancelled. No-op when the
// interval is zero. The first probe of each loop records the sentinel
// baselines; detection begins with the second.
func (s *Server) StartChangeProbes(ctx context.Context) {
	if s.cfg.ChangeProbeInterval <= 0 {
		return
	}
	for _, p := range s.probers {
		go p.Run(ctx, s.cfg.ChangeProbeInterval)
	}
}

// normalization lazily discovers a source's min/max bounds once per
// source epoch. The discovery runs real web queries, so it is fenced on
// the source's breaker: with the circuit open and no cached bounds the
// request fails fast instead of spending its latency budget on
// short-circuited probes, and bounds fabricated from degraded (empty)
// answers are never cached — they would skew every later query's
// normalisation. Bounds discovered while the epoch moved are returned
// to their caller but not cached, since they may mix both versions.
func (s *Server) normalization(ctx context.Context, src *source) (ranking.Normalization, error) {
	if norm, ok := src.cachedNorm(); ok {
		return norm, nil
	}
	src.discMu.Lock()
	defer src.discMu.Unlock()
	if norm, ok := src.cachedNorm(); ok {
		return norm, nil
	}
	seq := s.epochs.Seq(src.name)
	if src.res != nil && src.res.State() == resilience.Open {
		return ranking.Normalization{}, fmt.Errorf("service: source %q: %w", src.name, resilience.ErrOpen)
	}
	var degradedBefore int64
	if src.res != nil {
		degradedBefore = src.res.Stats().DegradedServes
	}
	probe, err := core.New(src.db, core.Options{
		Algorithm:   s.cfg.Algorithm,
		MaxParallel: s.cfg.MaxParallel,
	})
	if err != nil {
		return ranking.Normalization{}, err
	}
	norm, err := probe.Normalization(ctx)
	if err != nil {
		return ranking.Normalization{}, err
	}
	if src.res != nil && src.res.Stats().DegradedServes != degradedBefore {
		return ranking.Normalization{}, fmt.Errorf("service: source %q degraded during normalisation discovery", src.name)
	}
	src.normMu.Lock()
	if s.epochs.Seq(src.name) == seq {
		src.norm = &norm
	}
	src.normMu.Unlock()
	return norm, nil
}

// cachedNorm returns the normalisation discovered under the current
// epoch, if any.
func (src *source) cachedNorm() (ranking.Normalization, bool) {
	src.normMu.Lock()
	defer src.normMu.Unlock()
	if src.norm == nil {
		return ranking.Normalization{}, false
	}
	return *src.norm, true
}

type sourceDoc struct {
	Name    string   `json:"name"`
	SystemK int      `json:"system_k"`
	Attrs   []string `json:"attrs"`
	Popular []string `json:"popular"`
}

type rowDoc struct {
	ID     int64          `json:"id"`
	Values map[string]any `json:"values"`
}

type statsDoc struct {
	Queries          int64   `json:"queries"`
	Batches          int64   `json:"batches"`
	ParallelPct      float64 `json:"parallel_pct"`
	SimElapsedMillis int64   `json:"sim_elapsed_ms"`
	ElapsedMillis    int64   `json:"elapsed_ms"`
	DenseHits        int64   `json:"dense_hits"`
	DenseCrawls      int64   `json:"dense_crawls"`
	CrawledTuples    int64   `json:"crawled_tuples"`
	CacheCandidates  int64   `json:"cache_candidates"`
	SessionCacheSize int     `json:"session_cache_size"`
	// Shared answer cache counters for the query's source, cumulative
	// across all sessions. Zero when the source has no cache.
	SharedCacheHits        int64 `json:"shared_cache_hits"`
	SharedCacheMisses      int64 `json:"shared_cache_misses"`
	SharedCacheCoalesced   int64 `json:"shared_cache_coalesced"`
	SharedCacheContainment int64 `json:"shared_cache_containment"`
	SharedCacheCrawl       int64 `json:"shared_cache_crawl"`
}

type queryDoc struct {
	Session   string   `json:"session"`
	QID       string   `json:"qid"`
	Source    string   `json:"source"`
	Rank      string   `json:"rank"`
	Algorithm string   `json:"algorithm"`
	Page      int      `json:"page"`
	Rows      []rowDoc `json:"rows"`
	Exhausted bool     `json:"exhausted"`
	// Degraded marks a page whose computation absorbed at least one
	// fabricated (degraded) leaf answer: the source was unreachable and
	// the page was assembled from caches, crawl sets and dense regions
	// alone — complete with respect to those layers, possibly not with
	// respect to the live source.
	Degraded bool `json:"degraded,omitempty"`
	// StaleOK marks a page served while the source's breaker was not
	// closed: the rows are real cached data but may trail the live
	// source until the breaker re-closes.
	StaleOK bool     `json:"stale_ok,omitempty"`
	Stats   statsDoc `json:"stats"`
	// Trace is the request's trace ID: GET /api/trace?id=<Trace> returns
	// the decision path and per-stage timings. Empty with tracing off.
	Trace string `json:"trace,omitempty"`
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	var docs []sourceDoc
	for name, src := range s.sources {
		docs = append(docs, sourceDoc{
			Name:    name,
			SystemK: src.db.SystemK(),
			Attrs:   src.db.Schema().Names(),
			Popular: src.popular,
		})
	}
	// Stable order for clients.
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			if docs[j].Name < docs[i].Name {
				docs[i], docs[j] = docs[j], docs[i]
			}
		}
	}
	writeJSON(w, http.StatusOK, docs)
}

// epochStatsDoc is one source's epoch lifecycle state on GET /api/stats.
type epochStatsDoc struct {
	// Seq is the current source epoch; BumpedAt when it began.
	Seq      uint64    `json:"seq"`
	BumpedAt time.Time `json:"bumped_at"`
	// PartialBumps counts the advances that carried a region scope —
	// surgical invalidations that wiped only the bumped rect.
	PartialBumps int64 `json:"partial_bumps"`
	// Probes/Mismatches/Errors/Paused/Sentinels describe the
	// change-detection prober for the source; Refreshes counts
	// traffic-derived sentinel placement changes.
	Probes     int64 `json:"probes"`
	Mismatches int64 `json:"mismatches"`
	Errors     int64 `json:"errors"`
	Paused     int64 `json:"paused"`
	Sentinels  int   `json:"sentinels"`
	Refreshes  int64 `json:"refreshes"`
}

// sourceStatsDoc is one source's operational counters on GET /api/stats.
type sourceStatsDoc struct {
	SystemK                int               `json:"system_k"`
	Cache                  *qcache.Stats     `json:"cache,omitempty"`
	CacheHitRate           float64           `json:"cache_hit_rate"`
	Epoch                  *epochStatsDoc    `json:"epoch,omitempty"`
	Resilience             *resilience.Stats `json:"resilience,omitempty"`
	DenseEntries           int               `json:"dense_entries"`
	DenseTuples            int               `json:"dense_tuples"`
	DenseHits              int64             `json:"dense_hits"`
	DenseMisses            int64             `json:"dense_misses"`
	DenseWipes             int64             `json:"dense_wipes"`
	DenseRegionWipes       int64             `json:"dense_region_wipes"`
	DenseResidentEntries   int               `json:"dense_resident_entries"`
	DenseResidentBytes     int64             `json:"dense_resident_bytes"`
	DenseResidentLoads     int64             `json:"dense_resident_loads"`
	DenseResidentEvictions int64             `json:"dense_resident_evictions"`
}

type serviceStatsDoc struct {
	Sessions int                       `json:"sessions"`
	Sources  map[string]sourceStatsDoc `json:"sources"`
	// Pool describes the process-wide answer-cache pool (shared-pool mode
	// only): global residency plus per-namespace counters.
	Pool *qcache.PoolStats `json:"pool,omitempty"`
	// Cluster describes the replica ring (cluster mode only): membership
	// with per-peer health, and the ownership/forward/fallback counters.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Fleet is the observability roll-up: fleet-merged counters and
	// latency percentiles, per-replica attribution and the SLO burn
	// rates. Absent with tracing disabled.
	Fleet *fleetStatsDoc `json:"fleet,omitempty"`
}

// handleStats reports per-source cache and dense-index effectiveness so
// operators can watch hit rates in production.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	doc := serviceStatsDoc{
		Sessions: s.sessions.Len(),
		Sources:  make(map[string]sourceStatsDoc, len(s.sources)),
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		doc.Pool = &ps
	}
	if s.node != nil {
		cs := s.node.Stats()
		doc.Cluster = &cs
	}
	doc.Fleet = s.fleetStats()
	for name, src := range s.sources {
		ds := src.ix.Stats()
		sd := sourceStatsDoc{
			SystemK:                src.db.SystemK(),
			DenseEntries:           ds.Entries,
			DenseTuples:            ds.TuplesStored,
			DenseHits:              ds.Hits,
			DenseMisses:            ds.Misses,
			DenseWipes:             ds.Wipes,
			DenseRegionWipes:       ds.RegionWipes,
			DenseResidentEntries:   ds.ResidentEntries,
			DenseResidentBytes:     ds.ResidentBytes,
			DenseResidentLoads:     ds.ResidentLoads,
			DenseResidentEvictions: ds.ResidentEvictions,
		}
		if src.cache != nil {
			cs := src.cache.Stats()
			sd.Cache = &cs
			sd.CacheHitRate = cs.HitRate()
		}
		if src.res != nil {
			rs := src.res.Stats()
			sd.Resilience = &rs
		}
		if e, ok := s.epochs.Get(name); ok {
			ed := epochStatsDoc{Seq: e.Seq, BumpedAt: e.BumpedAt,
				PartialBumps: s.epochs.PartialBumps(name)}
			if p, ok := s.probers[name]; ok {
				ps := p.Stats()
				ed.Probes, ed.Mismatches, ed.Errors, ed.Paused, ed.Sentinels =
					ps.Probes, ps.Mismatches, ps.Errors, ps.Paused, ps.Sentinels
				ed.Refreshes = ps.Refreshes
			}
			sd.Epoch = &ed
		}
		doc.Sources[name] = sd
	}
	writeJSON(w, http.StatusOK, doc)
}

// getSession resolves the request's session (creating one if needed) and
// ensures the response carries the cookie.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) (*session.Session, error) {
	var id string
	if c, err := r.Cookie(SessionCookie); err == nil {
		id = c.Value
	}
	sess, err := s.sessions.GetOrNew(id)
	if err != nil {
		return nil, err
	}
	if sess.ID() != id {
		http.SetCookie(w, &http.Cookie{
			Name: SessionCookie, Value: sess.ID(),
			Path: "/", HttpOnly: true, SameSite: http.SameSiteLaxMode,
		})
	}
	return sess, nil
}

// parseQueryRequest decodes the filtering and ranking sections of a request
// form into a core query.
func (s *Server) parseQueryRequest(form url.Values) (*source, core.Query, core.Algorithm, int, error) {
	srcName := form.Get("source")
	src, ok := s.sources[srcName]
	if !ok {
		return nil, core.Query{}, "", 0, fmt.Errorf("unknown source %q", srcName)
	}
	rankExpr := form.Get("rank")
	fn, err := parseRanking(src.db.Schema(), rankExpr, form)
	if err != nil {
		return nil, core.Query{}, "", 0, err
	}
	pred, err := parseFilters(src.db.Schema(), form)
	if err != nil {
		return nil, core.Query{}, "", 0, err
	}
	algo := s.cfg.Algorithm
	if v := form.Get("algo"); v != "" {
		switch core.Algorithm(v) {
		case core.Baseline, core.Binary, core.Rerank, core.TA:
			algo = core.Algorithm(v)
		default:
			return nil, core.Query{}, "", 0, fmt.Errorf("unknown algorithm %q", v)
		}
	}
	k := s.cfg.DefaultPageSize
	if v := form.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, core.Query{}, "", 0, fmt.Errorf("bad page size %q", v)
		}
		if n > s.cfg.MaxPageSize {
			n = s.cfg.MaxPageSize
		}
		k = n
	}
	return src, core.Query{Pred: pred, Rank: fn}, algo, k, nil
}

// parseRanking accepts either a "rank" expression or per-attribute weight
// sliders w.<attr>=<weight> (the MD ranking section of the UI).
func parseRanking(schema *relation.Schema, expr string, form url.Values) (ranking.Function, error) {
	var fn ranking.Function
	if expr != "" {
		parsed, err := ranking.Parse(expr)
		if err != nil {
			return ranking.Function{}, err
		}
		fn = parsed
	}
	for key, vals := range form {
		name, ok := strings.CutPrefix(key, "w.")
		if !ok || len(vals) == 0 {
			continue
		}
		wv, err := strconv.ParseFloat(vals[len(vals)-1], 64)
		if err != nil {
			return ranking.Function{}, fmt.Errorf("bad weight %q for %q", vals[len(vals)-1], name)
		}
		if wv == 0 {
			continue // a centred slider contributes nothing
		}
		fn.Terms = append(fn.Terms, ranking.Term{Attr: name, Weight: wv})
	}
	if err := fn.Validate(); err != nil {
		return ranking.Function{}, err
	}
	_ = schema
	return fn, nil
}

// parseFilters is wdbhttp's form grammar plus label support for
// categorical membership: in.cut=Ideal,Premium also works.
func parseFilters(schema *relation.Schema, form url.Values) (relation.Predicate, error) {
	translated := url.Values{}
	for key, vals := range form {
		prefix, attrName, ok := strings.Cut(key, ".")
		if !ok || prefix != "in" || len(vals) == 0 {
			if ok && (prefix == "min" || prefix == "max" || prefix == "minx" || prefix == "maxx") {
				translated[key] = vals
			}
			continue
		}
		idx, found := schema.Lookup(attrName)
		if !found {
			return relation.Predicate{}, fmt.Errorf("unknown attribute %q", attrName)
		}
		a := schema.Attr(idx)
		var codes []string
		for _, part := range strings.Split(vals[len(vals)-1], ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if code, err := strconv.Atoi(part); err == nil && code >= 0 && code < len(a.Categories) {
				codes = append(codes, strconv.Itoa(code))
				continue
			}
			code, ok := a.CategoryIndex(part)
			if !ok {
				return relation.Predicate{}, fmt.Errorf("attribute %q has no category %q", attrName, part)
			}
			codes = append(codes, strconv.Itoa(code))
		}
		translated.Set(key, strings.Join(codes, ","))
	}
	return wdbhttp.ParseFilterForm(schema, translated)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "malformed form: " + err.Error()})
		return
	}
	sess, err := s.getSession(w, r)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	t, rid, r := s.startTrace(r, "query")
	doc, status, err := s.runQuery(r.Context(), sess, r.Form)
	s.finishRequest(t, "query", rid, doc, err)
	if err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// runQuery executes the filtering+ranking request and opens a cursor for
// get-next. It is shared by the JSON API and the HTML UI.
func (s *Server) runQuery(ctx context.Context, sess *session.Session, form url.Values) (*queryDoc, int, error) {
	src, q, algo, k, err := s.parseQueryRequest(form)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if t := obs.FromContext(ctx); t != nil {
		t.SetSource(src.name)
		t.SetDetail(q.Rank.String())
	}
	norm, err := s.normalization(ctx, src)
	if err != nil {
		return nil, http.StatusBadGateway, fmt.Errorf("normalisation discovery: %w", err)
	}
	rr, err := core.New(src.db, core.Options{
		Algorithm:         algo,
		MaxParallel:       s.cfg.MaxParallel,
		SimLatency:        s.cfg.SimLatency,
		DenseDepth:        s.cfg.DenseDepth,
		MaxQueriesPerNext: s.cfg.MaxQueriesPerNext,
		DenseIndex:        src.ix,
		// Scoped to the source: one session can interleave queries over
		// different schemas, and a warm candidate is only a candidate
		// under its own schema.
		Cache:         sess.Scoped(src.name),
		Normalization: &norm,
	})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	stream, err := rr.Rerank(ctx, q)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	cur := &cursor{stream: stream, source: src, k: k}
	qid := fmt.Sprintf("q%s-%d", sess.ID()[:8], time.Now().UnixNano())
	sess.SetCursor(qid, cur)
	doc, err := s.advance(ctx, sess, qid, cur)
	if err != nil {
		return nil, http.StatusBadGateway, err
	}
	doc.Rank = q.Rank.String()
	doc.Algorithm = string(algo)
	return doc, http.StatusOK, nil
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "malformed form: " + err.Error()})
		return
	}
	sess, err := s.getSession(w, r)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	t, rid, r := s.startTrace(r, "next")
	doc, status, err := s.runNext(r.Context(), sess, r.Form.Get("qid"))
	s.finishRequest(t, "next", rid, doc, err)
	if err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) runNext(ctx context.Context, sess *session.Session, qid string) (*queryDoc, int, error) {
	v, ok := sess.Cursor(qid)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown query id %q", qid)
	}
	cur, ok := v.(*cursor)
	if !ok {
		return nil, http.StatusInternalServerError, fmt.Errorf("corrupt cursor %q", qid)
	}
	obs.FromContext(ctx).SetSource(cur.source.name)
	doc, err := s.advance(ctx, sess, qid, cur)
	if err != nil {
		return nil, http.StatusBadGateway, err
	}
	return doc, http.StatusOK, nil
}

// advance produces the next page on a cursor and assembles the response,
// including the statistics panel.
func (s *Server) advance(ctx context.Context, sess *session.Session, qid string, cur *cursor) (*queryDoc, error) {
	cur.mu.Lock()
	defer cur.mu.Unlock()
	// The rerank span covers the whole page computation; the cache,
	// cluster, dense and web-query spans it causes nest inside it.
	tm := obs.FromContext(ctx).Start(obs.StageRerank)
	rows, err := cur.stream.NextN(ctx, cur.k)
	tm.End(obs.ErrOutcome(err, obs.OutcomeOK))
	if err != nil {
		return nil, err
	}
	cur.page++
	if len(rows) < cur.k {
		cur.exhausted = true
	}
	degraded := obs.FromContext(ctx).Degraded()
	staleOK := degraded
	if cur.source.res != nil && cur.source.res.State() != resilience.Closed {
		staleOK = true
	}
	schema := cur.source.db.Schema()
	doc := &queryDoc{
		Session:   sess.ID(),
		QID:       qid,
		Source:    cur.source.name,
		Page:      cur.page,
		Rows:      make([]rowDoc, 0, len(rows)),
		Exhausted: cur.exhausted,
		Degraded:  degraded,
		StaleOK:   staleOK,
	}
	for _, t := range rows {
		vals := make(map[string]any, schema.Len())
		for i := 0; i < schema.Len(); i++ {
			a := schema.Attr(i)
			if a.Kind == relation.Categorical {
				label, _ := a.Category(t.Values[i])
				vals[a.Name] = label
			} else {
				vals[a.Name] = t.Values[i]
			}
		}
		doc.Rows = append(doc.Rows, rowDoc{ID: t.ID, Values: vals})
	}
	st := cur.stream.TotalStats()
	doc.Stats = statsDoc{
		Queries:          st.Queries,
		Batches:          st.Batches,
		ParallelPct:      100 * st.ParallelQueryFraction(),
		SimElapsedMillis: st.SimElapsed.Milliseconds(),
		ElapsedMillis:    st.Elapsed.Milliseconds(),
		DenseHits:        st.DenseHits,
		DenseCrawls:      st.DenseCrawls,
		CrawledTuples:    st.CrawledTuples,
		CacheCandidates:  st.CacheCandidates,
		SessionCacheSize: sess.CacheSize(),
	}
	if cur.source.cache != nil {
		cs := cur.source.cache.Stats()
		doc.Stats.SharedCacheHits = cs.Hits
		doc.Stats.SharedCacheMisses = cs.Misses
		doc.Stats.SharedCacheCoalesced = cs.Coalesced
		doc.Stats.SharedCacheContainment = cs.ContainmentHits
		doc.Stats.SharedCacheCrawl = cs.CrawlHits
	}
	return doc, nil
}
