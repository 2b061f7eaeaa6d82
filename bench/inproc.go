package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dense"
	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/qcache"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/wdbhttp"
)

// This file is the traced pass's in-process fixture. Two passes replay
// the same trace prefix with one client per entry replica:
//
//   - the HTTP pass builds service.New with the configuration the
//     workload's qr2server flags produce and records three seams per
//     request: edge (the driver), service (a handler wrapper around
//     Server.ServeHTTP) and source (a decorator around SourceConfig.DB);
//   - the engine pass replays the same forms through a bench-composed
//     stack that mirrors service.New's order using only public
//     constructors, with a span decorator at every layer boundary.
//
// Both are bench-owned: no file of the program changes.

// defaultPolicy is the resilience policy cmd/qr2server's default flags
// produce.
var defaultPolicy = resilience.Policy{
	AttemptTimeout:   10 * time.Second,
	MaxAttempts:      3,
	BreakerThreshold: 5,
	BreakerOpenFor:   10 * time.Second,
	BreakerProbes:    1,
	DegradedServe:    true,
}

// webDBs are in-process stand-ins for the wdbserver children: the same
// catalogs behind wdbhttp.NewServer with the same latency, on loopback.
type webDBs struct {
	servers []*httptest.Server
	clients map[string]*wdbhttp.Client
}

func startWebDBs(ctx context.Context, cats map[string]*datagen.Catalog) (*webDBs, error) {
	w := &webDBs{clients: map[string]*wdbhttp.Client{}}
	for _, name := range sourceNames {
		cat := cats[name]
		local, err := hidden.NewLocal(name, cat.Rel, systemK, cat.Rank, hidden.WithLatency(webLatency))
		if err != nil {
			w.close()
			return nil, err
		}
		ts := httptest.NewServer(wdbhttp.NewServer(local))
		w.servers = append(w.servers, ts)
		if w.clients[name], err = wdbhttp.Dial(ctx, ts.URL, nil); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *webDBs) close() {
	for _, ts := range w.servers {
		ts.Close()
	}
}

// cacheBytesOf is the answer-cache budget spec's qr2server children run
// with.
func cacheBytesOf(spec *Spec) int64 {
	if spec.CacheBytes > 0 {
		return spec.CacheBytes
	}
	return qcache.DefaultMaxBytes
}

var replicaIDs = []string{"a", "b", "c"}

// listeners opens one loopback listener per replica, so peer URLs are
// known before any replica is built.
func listeners(n int) ([]net.Listener, map[string]string, error) {
	ls := make([]net.Listener, n)
	peers := map[string]string{}
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range ls[:i] {
				open.Close()
			}
			return nil, nil, err
		}
		ls[i] = l
		peers[replicaIDs[i]] = "http://" + l.Addr().String()
	}
	return ls, peers, nil
}

// serve starts an httptest server for h on l.
func serve(l net.Listener, h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return ts
}

// httpPassResult is what one in-process HTTP pass measured.
type httpPassResult struct {
	timed        *phaseResult
	allocsPerReq float64 // process-wide: service, in-process client and web databases
	bytesPerReq  float64
}

// httpPass replays tr against in-process service.New replicas over
// loopback HTTP. rec may be nil (the untraced pass that prices the
// tracing overhead).
func httpPass(ctx context.Context, spec *Spec, tr *Trace, cats map[string]*datagen.Catalog, rec *recorder, logDir string) (*httpPassResult, error) {
	wdb, err := startWebDBs(ctx, cats)
	if err != nil {
		return nil, err
	}
	defer wdb.close()
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(logDir, "inprocess.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()

	ls, peers, err := listeners(spec.Replicas)
	if err != nil {
		return nil, err
	}
	var servers []*httptest.Server
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, l := range ls[len(servers):] {
			l.Close()
		}
	}()
	nodeCtx, stopNodes := context.WithCancel(ctx)
	defer stopNodes()
	for i := 0; i < spec.Replicas; i++ {
		cfg := service.Config{
			Sources:         map[string]service.SourceConfig{},
			Algorithm:       core.Rerank,
			SharedCachePool: true,
			CachePoolBytes:  cacheBytesOf(spec),
			Resilience:      defaultPolicy,
			// qr2server logs one line per request to stderr; the children's
			// stderr is a file, so this is too.
			Logger: slog.New(slog.NewTextHandler(logFile, nil)),
		}
		if spec.Replicas > 1 {
			cfg.SelfID, cfg.Peers = replicaIDs[i], peers
		}
		for _, name := range sourceNames {
			db, err := rec.wrap(wdb.clients[name], "source", "service")
			if err != nil {
				return nil, err
			}
			cfg.Sources[name] = service.SourceConfig{DB: db, Cache: &qcache.Config{MaxBytes: cacheBytesOf(spec)}}
		}
		srv, err := service.New(cfg)
		if err != nil {
			return nil, err
		}
		if node := srv.Cluster(); node != nil {
			node.Start(nodeCtx)
		}
		var h http.Handler = srv
		if rec != nil {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				req := parseReqHeader(r.Header.Get(reqHeader))
				start := time.Now()
				srv.ServeHTTP(w, r.WithContext(withReq(r.Context(), req)))
				rec.add(req, "service", "edge", start, time.Now())
			})
		}
		servers = append(servers, serve(ls[i], h))
	}

	targets := make([]string, spec.Clients)
	for c := range targets {
		targets[c] = servers[c%len(servers)].URL
	}
	d := newDriver(targets, spec.Clients, tr.userSlots())
	defer d.close()
	if warm := d.replay(tr.Warm, spec.Clients, false, 0, 0); warm.failed > 0 {
		return nil, fmt.Errorf("%s: in-process warm phase: %d requests failed: %s", spec.Name, warm.failed, warm.firstErr)
	}
	rec.reset()
	d.rec = rec
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The traced pass is closed-loop on every workload: it prices layers,
	// not queueing.
	timed := d.replay(tr.Timed, tracedClients(spec), false, 0, 0)
	runtime.ReadMemStats(&m1)
	if timed.failed > 0 {
		return nil, fmt.Errorf("%s: in-process pass: %d requests failed: %s", spec.Name, timed.failed, timed.firstErr)
	}
	n := float64(timed.attempted)
	return &httpPassResult{
		timed:        timed,
		allocsPerReq: float64(m1.Mallocs-m0.Mallocs) / n,
		bytesPerReq:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

// tracedClients is the traced pass's client count: one, except on the
// ring, where each entry replica keeps its own users.
func tracedClients(spec *Spec) int {
	if spec.Replicas > 1 {
		return spec.Clients
	}
	return 1
}

// engineStack is one replica of the bench-composed stack: for each
// source, span(wdbhttp.Client) → span(resilience) → span(qcache
// namespace) [→ span(cluster source) on the ring], one shared dense
// index per source and one session manager.
type engineStack struct {
	dbs      map[string]hidden.DB // top of each source's stack, what core.New gets
	caches   map[string]*qcache.Cache
	ix       map[string]*dense.Index
	norms    map[string]ranking.Normalization
	sessions *session.Manager
}

// buildStack mirrors service.New's wiring order with public constructors.
func buildStack(spec *Spec, wdb *webDBs, rec *recorder, node *cluster.Node, epochs *epoch.Registry) (*engineStack, error) {
	st := &engineStack{
		dbs: map[string]hidden.DB{}, caches: map[string]*qcache.Cache{},
		ix: map[string]*dense.Index{}, norms: map[string]ranking.Normalization{},
		sessions: session.NewManager(30*time.Minute, 0),
	}
	pool := qcache.NewPool(qcache.PoolConfig{MaxBytes: cacheBytesOf(spec)})
	top := "qcache"
	if node != nil {
		top = "cluster"
	}
	for _, name := range sourceNames {
		src, err := rec.wrap(wdb.clients[name], "source", "resilience")
		if err != nil {
			return nil, err
		}
		// On the ring the cluster source calls the cache itself, so the
		// resilient database's caller is the cluster layer.
		raw, err := rec.wrap(resilience.NewSource(defaultPolicy).Wrap(src), "resilience", top)
		if err != nil {
			return nil, err
		}
		cache, err := pool.Namespace(name, raw, qcache.Config{Epochs: epochs})
		if err != nil {
			return nil, err
		}
		var db hidden.DB = cache
		if node != nil {
			db = node.Source(name, cache, raw)
		}
		if db, err = rec.wrap(db, top, "core"); err != nil {
			return nil, err
		}
		epochs.Register(name, nil, 1)
		ix, err := dense.Open(cache.Schema(), kvstore.NewMemory(), dense.WithResidentBytes(0))
		if err != nil {
			return nil, err
		}
		st.dbs[name], st.caches[name], st.ix[name] = db, cache, ix
	}
	return st, nil
}

// engineReq is one replayed request's bench-side timings (µs) and
// allocation counts.
type engineReq struct {
	id                                                 int32 // request id in the recorder
	parseRank, parseFilter, sessionGet, cachedMatching float64
	page, encode                                       float64
	pageAllocs                                         float64
}

// enginePassResult is what the engine pass measured.
type enginePassResult struct {
	reqs            []engineReq
	allocsPerSearch float64
}

// enginePage is an open cursor of the engine pass.
type enginePage struct {
	stream *core.Stream
	schema *relation.Schema
	source string
	rank   string
	k      int
	page   int
}

// heapAllocs reads the process's cumulative heap allocation count
// without stopping the world.
func heapAllocs() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// enginePass replays tr through bench-composed stacks, one per replica.
func enginePass(ctx context.Context, spec *Spec, tr *Trace, cats map[string]*datagen.Catalog, rec *recorder) (*enginePassResult, error) {
	wdb, err := startWebDBs(ctx, cats)
	if err != nil {
		return nil, err
	}
	defer wdb.close()

	stacks := make([]*engineStack, spec.Replicas)
	if spec.Replicas == 1 {
		if stacks[0], err = buildStack(spec, wdb, rec, nil, epoch.NewRegistry()); err != nil {
			return nil, err
		}
	} else {
		ls, peers, err := listeners(spec.Replicas)
		if err != nil {
			return nil, err
		}
		nodeCtx, stopNodes := context.WithCancel(ctx)
		defer stopNodes()
		for i := range stacks {
			epochs := epoch.NewRegistry()
			node, err := cluster.New(cluster.Config{Self: replicaIDs[i], Peers: peers, Epochs: epochs})
			if err != nil {
				return nil, err
			}
			if stacks[i], err = buildStack(spec, wdb, rec, node, epochs); err != nil {
				return nil, err
			}
			mux := http.NewServeMux()
			node.Register(mux)
			mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
			ts := serve(ls[i], mux)
			defer ts.Close()
			node.Start(nodeCtx)
		}
	}
	// Normalisation discovery, once per source per replica, as the
	// service does on a source's first query.
	for _, st := range stacks {
		for _, name := range sourceNames {
			rr, err := core.New(st.dbs[name], core.Options{Algorithm: core.Rerank})
			if err != nil {
				return nil, err
			}
			if st.norms[name], err = rr.Normalization(ctx); err != nil {
				return nil, err
			}
		}
	}

	clients := tracedClients(spec)
	cookies := make([]string, tr.userSlots())
	run := func(steps []Step, res *enginePassResult) error {
		for _, s := range steps {
			st := stacks[(s.User%clients)%len(stacks)]
			var cur *enginePage
			for page := 0; page <= s.Next; page++ {
				er := engineReq{id: rec.nextReqOrZero()}
				rctx := withReq(ctx, er.id)
				var q *engineQuery
				if page == 0 {
					if q, err = parseAndResolve(st, s, cookies, rec, &er); err != nil {
						return err
					}
				}
				allocs0 := heapAllocs()
				start := time.Now()
				if q != nil {
					if cur, err = q.open(rctx, st); err != nil {
						return err
					}
				}
				rows, err := cur.stream.NextN(rctx, cur.k)
				end := time.Now()
				if err != nil {
					return err
				}
				er.pageAllocs = heapAllocs() - allocs0
				er.page = us(end.Sub(start))
				rec.add(er.id, "core", "service", start, end)
				cur.page++

				start = time.Now()
				if err := encodePage(cur, rows); err != nil {
					return err
				}
				end = time.Now()
				er.encode = us(end.Sub(start))
				rec.add(er.id, "encode", "service", start, end)
				if res != nil {
					res.reqs = append(res.reqs, er)
				}
			}
		}
		return nil
	}
	if err := run(tr.Warm, nil); err != nil {
		return nil, fmt.Errorf("%s: engine pass warm phase: %w", spec.Name, err)
	}
	rec.reset()
	res := &enginePassResult{}
	if err := run(tr.Timed, res); err != nil {
		return nil, fmt.Errorf("%s: engine pass: %w", spec.Name, err)
	}

	// Allocation micro-loop: the recorded top-of-stack searches again,
	// straight at the answer cache, where they are now resident. Not on
	// the ring, where a replica's own cache misses every key it does not
	// own and would go to the web for it.
	if rec != nil && len(rec.preds) > 0 && spec.Replicas == 1 {
		allocs0 := heapAllocs()
		for _, kp := range rec.preds {
			if _, err := stacks[0].caches[kp.source].Search(ctx, kp.pred); err != nil {
				return nil, err
			}
		}
		res.allocsPerSearch = (heapAllocs() - allocs0) / float64(len(rec.preds))
	}
	return res, nil
}

func (r *recorder) nextReqOrZero() int32 {
	if r == nil {
		return 0
	}
	return r.nextReq()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// engineQuery is a parsed /api/query form with its session resolved.
type engineQuery struct {
	source, rank string
	fn           ranking.Function
	pred         relation.Predicate
	k            int
	sess         *session.Session
}

// parseAndResolve does what service.handleQuery does before it touches
// the engine: parse the form and resolve the session.
func parseAndResolve(st *engineStack, s Step, cookies []string, rec *recorder, er *engineReq) (*engineQuery, error) {
	start := time.Now()
	form, err := url.ParseQuery(s.Form)
	if err != nil {
		return nil, err
	}
	q := &engineQuery{source: form.Get("source"), rank: form.Get("rank")}
	if q.fn, err = ranking.Parse(q.rank); err != nil {
		return nil, err
	}
	mid := time.Now()
	db, ok := st.dbs[q.source]
	if !ok {
		return nil, fmt.Errorf("engine pass: unknown source %q", q.source)
	}
	if q.pred, err = wdbhttp.ParseFilterForm(db.Schema(), form); err != nil {
		return nil, err
	}
	if q.k, err = strconv.Atoi(form.Get("k")); err != nil {
		return nil, err
	}
	end := time.Now()
	er.parseRank, er.parseFilter = us(mid.Sub(start)), us(end.Sub(mid))
	rec.add(er.id, "parse", "service", start, end)

	start = time.Now()
	if q.sess, err = st.sessions.GetOrNew(cookies[s.User]); err != nil {
		return nil, err
	}
	end = time.Now()
	cookies[s.User] = q.sess.ID()
	er.sessionGet = us(end.Sub(start))
	rec.add(er.id, "session", "service", start, end)

	// What the engine will ask of the session cache, priced on its own
	// (the engine's own call is inside the core span).
	start = time.Now()
	_ = q.sess.Scoped(q.source).CachedMatching(q.pred)
	er.cachedMatching = us(time.Since(start))
	return q, nil
}

// open builds the reranker and opens the stream, as service.runQuery does.
func (q *engineQuery) open(ctx context.Context, st *engineStack) (*enginePage, error) {
	norm := st.norms[q.source]
	db := st.dbs[q.source]
	rr, err := core.New(db, core.Options{
		Algorithm:     core.Rerank,
		DenseIndex:    st.ix[q.source],
		Cache:         q.sess.Scoped(q.source),
		Normalization: &norm,
	})
	if err != nil {
		return nil, err
	}
	stream, err := rr.Rerank(ctx, core.Query{Pred: q.pred, Rank: q.fn})
	if err != nil {
		return nil, err
	}
	return &enginePage{stream: stream, schema: db.Schema(), source: q.source, rank: q.rank, k: q.k}, nil
}

// pageDoc has the shape of the service's response document, so that
// encoding it costs what the service's own encode costs.
type pageDoc struct {
	Session   string      `json:"session"`
	QID       string      `json:"qid"`
	Source    string      `json:"source"`
	Rank      string      `json:"rank"`
	Algorithm string      `json:"algorithm"`
	Page      int         `json:"page"`
	Rows      []oracleRow `json:"rows"`
	Exhausted bool        `json:"exhausted"`
	Stats     pageStats   `json:"stats"`
	Trace     string      `json:"trace,omitempty"`
}

type pageStats struct {
	Queries                int64   `json:"queries"`
	Batches                int64   `json:"batches"`
	ParallelPct            float64 `json:"parallel_pct"`
	SimElapsedMillis       int64   `json:"sim_elapsed_ms"`
	ElapsedMillis          int64   `json:"elapsed_ms"`
	DenseHits              int64   `json:"dense_hits"`
	DenseCrawls            int64   `json:"dense_crawls"`
	CrawledTuples          int64   `json:"crawled_tuples"`
	CacheCandidates        int64   `json:"cache_candidates"`
	SessionCacheSize       int     `json:"session_cache_size"`
	SharedCacheHits        int64   `json:"shared_cache_hits"`
	SharedCacheMisses      int64   `json:"shared_cache_misses"`
	SharedCacheCoalesced   int64   `json:"shared_cache_coalesced"`
	SharedCacheContainment int64   `json:"shared_cache_containment"`
	SharedCacheCrawl       int64   `json:"shared_cache_crawl"`
}

// encodePage assembles and JSON-encodes the response the service would
// write for rows.
func encodePage(cur *enginePage, rows []relation.Tuple) error {
	st := cur.stream.TotalStats()
	doc := pageDoc{
		Session: "0123456789abcdef0123456789abcdef", QID: "q01234567-1700000000000000000",
		Source: cur.source, Rank: cur.rank, Algorithm: string(core.Rerank),
		Page: cur.page, Rows: make([]oracleRow, 0, len(rows)), Exhausted: len(rows) < cur.k,
		Stats: pageStats{
			Queries: st.Queries, Batches: st.Batches, ParallelPct: 100 * st.ParallelQueryFraction(),
			ElapsedMillis: st.Elapsed.Milliseconds(), DenseHits: st.DenseHits, DenseCrawls: st.DenseCrawls,
			CrawledTuples: st.CrawledTuples, CacheCandidates: st.CacheCandidates,
		},
		Trace: "r17a0b1c2d3e4f5a6-1f",
	}
	for _, t := range rows {
		doc.Rows = append(doc.Rows, oracleRow{ID: t.ID, Values: rowValues(cur.schema, t)})
	}
	return json.NewEncoder(io.Discard).Encode(&doc)
}
