// Command qr2server runs the QR2 reranking service.
//
// Sources can be in-process simulators (-sources) or remote web databases
// reached through their public HTTP search interface (-remote), typically a
// cmd/wdbserver instance. Dense-region indexes are persisted per source
// under -dense so that on-the-fly indexing work survives restarts; the
// cache is verified at boot, as the paper describes.
//
// Every source is fronted by a shared answer cache (internal/qcache) that
// memoizes top-k searches across all sessions and coalesces identical
// in-flight queries. The caches of all sources form one process-wide
// pool under a single global -cache-bytes budget, so hot sources borrow
// capacity idle ones are not using. -cache-ttl bounds staleness against
// live databases, and -cache persists the caches across restarts next to
// the dense indexes. -cache-reuse (default on) additionally serves
// strictly narrower predicates from complete cached answers without any
// web-database query; completed region crawls refill the cache the same
// way. -dense-resident-bytes budgets the decoded tuples each dense index
// keeps in memory for store-free hit serving. These two flags are the
// only memory budgets: each is fixed at startup.
//
// -change-probe enables live change detection against the sources: on
// the given period each source is replayed a set of recorded sentinel
// queries (-sentinels many), and any answer-digest mismatch bumps the
// source's epoch. Sentinel placement is traffic-derived: one unbounded
// baseline sentinel always probes the source-wide top-k, while the rest
// are recorded over the answer cache's hottest predicates, so detection
// concentrates where cached reuse actually happens. Each bounded
// sentinel covers a rect in attribute space, and a mismatch on it bumps
// only that region — the answer cache drops just the entries and crawl
// sets intersecting the rect (persisted records included) and the
// dense-region index evicts just the intersecting entries, while
// everything disjoint keeps serving untouched. Only the unbounded
// baseline escalates to the source-wide wipe. Without -change-probe,
// only the boot-time fingerprint check protects against source drift
// (plus -cache-ttl as a staleness bound).
//
// -peers and -self join the replica to a consistent-hash cluster
// (internal/cluster): -peers lists every replica as id=url pairs —
// including this one — and -self names which entry this process is. Each
// cached answer then has exactly one owner replica; queries for
// foreign-owned keys proxy the cache lookup to the owner and on an
// owner miss pay the web query locally and push the answer to the
// owner. Dead peers are excluded from the ring by
// health probes and failed forwards fall back to local serving, so user
// requests survive any peer outage. In cluster mode an epoch bump
// propagates through the ring (peer messages carry epoch seqs and the
// bumped region's rect when the bump was scoped, the probe loop gossips
// them), every replica converges to the new epoch — partial-wiping when
// the adoption arrives with its scope intact, full-wiping on a gap —
// and stale-epoch admissions are rejected; a recovered peer
// additionally gets its fallback-admitted entries re-homed to it.
// Lookups and pushes ride the peer protocol — persistent connections
// carrying length-prefixed binary frames with coalesced forwards (see
// internal/cluster doc.go), opened by an Upgrade on the peer's -addr, so
// every -peers URL must be http://host:port. A peer that cannot be
// dialled is indicted and served around; there is no second transport.
//
// Observability: every request is traced through the answer path
// (internal/obs) — -trace-buffer sizes the /api/trace + /debug/requests
// inspector ring, -slow-query gates the slow-query log, /metrics carries
// per-stage latency histograms, and -debug-addr serves net/http/pprof on
// a private side mux that is never mounted on the public -addr. Each
// replica also serves its mergeable metrics snapshot at /cluster/obs; in
// cluster mode the replicas poll each other every gossip tick and expose
// the merged fleet roll-up (qr2_fleet_* families) plus multi-window SLO
// burn rates (qr2_slo_*; budgets set by -slo-queries-per-answer,
// -slo-degraded-fraction and -slo-forward-p99) on /metrics. Forwarded
// lookups return their remote span subtrees, which are stitched into the
// caller's trace, so /api/trace shows one end-to-end tree per request
// with each span attributed to the replica that ran it.
//
// Usage (quickstart):
//
//	qr2server -addr :8080 -sources bluenile,zillow -dense /var/lib/qr2
//	qr2server -addr :8080 -remote bluenile=http://localhost:8081
//	qr2server -cache /var/lib/qr2 -cache-bytes 268435456 -cache-ttl 10m
//
//	# three-replica cluster sharing one answer-cache key space:
//	qr2server -addr :8080 -self a -peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080
//	qr2server -addr :8080 -self b -peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080
//	qr2server -addr :8080 -self c -peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/wdbhttp"
)

var popular = map[string][]string{
	"bluenile": {"price", "price - 0.1*carat - 0.5*depth", "price + lwratio"},
	"zillow":   {"price", "price - 0.3*sqft", "price + sqft"},
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		sources = flag.String("sources", "bluenile,zillow", "comma-separated in-process simulators")
		remote  = flag.String("remote", "", "comma-separated name=url remote web databases")
		n       = flag.Int("n", 20000, "in-process catalog size")
		seed    = flag.Int64("seed", 7, "generator seed")
		systemK = flag.Int("k", 50, "in-process system-k")
		algo    = flag.String("algo", "rerank", "default algorithm: baseline, binary, rerank, ta")
		dense   = flag.String("dense", "", "directory for persistent dense-region indexes (empty = in-memory)")
		latency = flag.Duration("latency", 0, "simulated per-query latency for the statistics panel")

		denseResident = flag.Int64("dense-resident-bytes", 0,
			"decoded-tuple residency budget per dense index (0 = default 256 MiB, negative disables residency)")

		cacheBytes = flag.Int64("cache-bytes", qcache.DefaultMaxBytes,
			"answer cache budget in bytes, global across sources (0 disables)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "shared answer cache entry TTL (0 = never expire)")
		cacheDir   = flag.String("cache", "", "directory for persistent answer caches (empty = in-memory)")
		cacheReuse = flag.Bool("cache-reuse", true,
			"serve strictly narrower predicates from complete cached answers (overflow-aware reuse)")
		peers = flag.String("peers", "",
			"comma-separated id=url replica list (including this one) forming a consistent-hash answer-cache ring; empty = stand-alone")
		self        = flag.String("self", "", "this replica's id in -peers")
		changeProbe = flag.Duration("change-probe", 0,
			"period for live change-detection probes against each source (sentinel query replays; a mismatch on a bounded sentinel wipes only that sentinel's region; 0 = boot-time fingerprint only)")
		sentinels = flag.Int("sentinels", epoch.DefaultSentinels,
			"sentinel queries per source for change detection: one unbounded baseline plus traffic-derived sentinels over the answer cache's hottest predicates")
		traceBuffer = flag.Int("trace-buffer", 0,
			"recent request traces kept for /api/trace and /debug/requests (0 = default 256, negative disables tracing)")
		slowQuery = flag.Duration("slow-query", 0,
			"slow-query threshold: requests at or above it are logged and kept in /api/trace?slow=1 (0 disables)")
		sloQueriesPerAnswer = flag.Float64("slo-queries-per-answer", 0,
			"SLO budget of web-database queries per completed answer, fleet-wide (0 = default 4)")
		sloDegradedFraction = flag.Float64("slo-degraded-fraction", 0,
			"SLO tolerated fraction of degraded serves (0 = default 0.05)")
		sloForwardP99 = flag.Duration("slo-forward-p99", 0,
			"SLO budget for peer-forward p99 latency (0 = default 250ms)")
		debugAddr = flag.String("debug-addr", "",
			"listen address for the pprof side mux (/debug/pprof); empty disables — never exposed on the public -addr mux")

		sourceTimeout = flag.Duration("source-timeout", 10*time.Second,
			"per-attempt deadline for each web-database query (negative disables)")
		sourceRetries = flag.Int("source-retries", 2,
			"retries per web-database call after a transport-level failure (capped exponential backoff with jitter)")
		breakerThreshold = flag.Int("breaker-threshold", 5,
			"consecutive transport-level failures that open a source's circuit breaker (negative disables the breaker)")
		breakerOpen = flag.Duration("breaker-open", 10*time.Second,
			"how long an open breaker rejects calls before admitting half-open probes")
		breakerProbes = flag.Int("breaker-probes", 1,
			"concurrent half-open probe calls admitted per recovery window")
		degradedServe = flag.Bool("degraded-serve", true,
			"serve best-effort answers (caches, crawl sets, dense regions; marked degraded/stale-ok) instead of failing while a source's breaker is open")
		dialRetries = flag.Int("dial-retries", 5,
			"attempts for each -remote source's boot-time /schema fetch (rides out a web database that boots late)")
		dialBackoff = flag.Duration("dial-backoff", 500*time.Millisecond,
			"initial backoff between -remote /schema fetch attempts (doubles per retry)")
	)
	flag.Parse()
	if (*peers == "") != (*self == "") {
		log.Fatal("qr2server: -peers and -self must be set together")
	}
	policy, err := sourcePolicy(*sourceTimeout, *sourceRetries, *breakerThreshold, *breakerOpen, *breakerProbes, *degradedServe)
	if err != nil {
		log.Fatalf("qr2server: %v", err)
	}

	cacheFor := func(name string) *qcache.Config {
		if *cacheBytes == 0 {
			return nil
		}
		return &qcache.Config{
			TTL:                *cacheTTL,
			Store:              openStore(*cacheDir, name+".qcache"),
			DisableContainment: !*cacheReuse,
		}
	}

	cfg := service.Config{
		Sources:             map[string]service.SourceConfig{},
		Algorithm:           core.Algorithm(*algo),
		SimLatency:          *latency,
		SharedCachePool:     true,
		CachePoolBytes:      *cacheBytes,
		SelfID:              *self,
		ChangeProbeInterval: *changeProbe,
		ChangeSentinels:     *sentinels,
		TraceBuffer:         *traceBuffer,
		SlowQuery:           *slowQuery,
		SLO: obs.SLOObjectives{
			QueriesPerAnswer: *sloQueriesPerAnswer,
			DegradedFraction: *sloDegradedFraction,
			ForwardP99:       *sloForwardP99,
		},
		Logger:     slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Resilience: policy,
	}
	peerList, err := parseNamedURLs("peers", *peers)
	if err != nil {
		log.Fatalf("qr2server: %v", err)
	}
	if len(peerList) > 0 {
		cfg.Peers = map[string]string{}
		for _, p := range peerList {
			cfg.Peers[p.name] = p.url
		}
	}
	local, remotes, err := parseSources(*sources, *remote)
	if err != nil {
		log.Fatalf("qr2server: %v", err)
	}
	for _, name := range local {
		var cat *datagen.Catalog
		switch name {
		case "bluenile":
			cat = datagen.BlueNile(*n, *seed)
		case "zillow":
			cat = datagen.Zillow(*n, *seed+1)
		default:
			log.Fatalf("qr2server: unknown source %q", name)
		}
		db, err := hidden.NewLocal(name, cat.Rel, *systemK, cat.Rank)
		if err != nil {
			log.Fatalf("qr2server: %v", err)
		}
		cfg.Sources[name] = service.SourceConfig{
			DB:                 db,
			DenseStore:         openStore(*dense, name+".dense"),
			DenseResidentBytes: *denseResident,
			Cache:              cacheFor(name),
			Popular:            popular[name],
		}
		log.Printf("qr2server: source %s: %d tuples, system-k %d", name, cat.Rel.Len(), *systemK)
	}
	for _, r := range remotes {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		client, err := wdbhttp.Dial(ctx, r.url, nil, wdbhttp.WithRetry(*dialRetries, *dialBackoff))
		cancel()
		if err != nil {
			log.Fatalf("qr2server: dial %s: %v", r.url, err)
		}
		cfg.Sources[r.name] = service.SourceConfig{
			DB:                 client,
			DenseStore:         openStore(*dense, r.name+".dense"),
			DenseResidentBytes: *denseResident,
			Cache:              cacheFor(r.name),
			Popular:            popular[r.name],
		}
		log.Printf("qr2server: source %s: remote %s, system-k %d", r.name, r.url, client.SystemK())
	}

	srv, err := service.New(cfg)
	if err != nil {
		log.Fatalf("qr2server: %v", err)
	}
	if node := srv.Cluster(); node != nil {
		node.Start(context.Background())
		log.Printf("qr2server: cluster replica %s of %d peers", node.Self(), len(cfg.Peers))
	}
	if *changeProbe > 0 {
		srv.StartChangeProbes(context.Background())
		log.Printf("qr2server: change-detection probes every %v (%d sentinels per source)", *changeProbe, *sentinels)
	}
	go func() {
		for range time.Tick(time.Minute) {
			if n := srv.Sessions().Sweep(); n > 0 {
				log.Printf("qr2server: swept %d idle sessions", n)
			}
		}
	}()
	if *debugAddr != "" {
		// pprof lives on its own mux and listener: profiling endpoints on
		// the public address would hand any user heap dumps and CPU time.
		go func() {
			log.Printf("qr2server: pprof on %s/debug/pprof/", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, pprofMux()))
		}()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("qr2server: listening on %s (default algorithm %s)", *addr, *algo)
	log.Fatal(httpSrv.ListenAndServe())
}

// sourcePolicy maps the -source-* and -breaker-* flags onto the
// resilience policy wrapped around every source. -source-retries counts
// tries after the first, so a negative value is refused: it would reach
// the policy as MaxAttempts 0, which the policy reads as its default.
func sourcePolicy(timeout time.Duration, retries, breakerThreshold int, breakerOpen time.Duration,
	breakerProbes int, degradedServe bool) (resilience.Policy, error) {
	if retries < 0 {
		return resilience.Policy{}, fmt.Errorf("-source-retries %d: want 0 or more", retries)
	}
	return resilience.Policy{
		AttemptTimeout:   timeout,
		MaxAttempts:      retries + 1,
		BreakerThreshold: breakerThreshold,
		BreakerOpenFor:   breakerOpen,
		BreakerProbes:    breakerProbes,
		DegradedServe:    degradedServe,
	}, nil
}

// namedURL is one name=url entry of -remote or -peers.
type namedURL struct{ name, url string }

// parseNamedURLs parses the comma-separated name=url list given to flag
// (-remote and -peers share the form). Every entry needs a non-empty
// name and URL, and no name may appear twice: a repeat would silently
// replace the earlier entry.
func parseNamedURLs(flag, list string) ([]namedURL, error) {
	if list == "" {
		return nil, nil
	}
	var out []namedURL
	seen := map[string]bool{}
	for _, entry := range strings.Split(list, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -%s entry %q (want name=url)", flag, entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("-%s names %q twice", flag, name)
		}
		seen[name] = true
		out = append(out, namedURL{name, url})
	}
	return out, nil
}

// parseSources splits -sources (in-process simulator names, blank
// entries skipped) and -remote, rejecting a source named twice within or
// across the two flags.
func parseSources(sources, remote string) ([]string, []namedURL, error) {
	remotes, err := parseNamedURLs("remote", remote)
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	for _, r := range remotes {
		seen[r.name] = true
	}
	var local []string
	for _, name := range strings.Split(sources, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, nil, fmt.Errorf("source %q named twice in -sources/-remote", name)
		}
		seen[name] = true
		local = append(local, name)
	}
	return local, remotes, nil
}

// pprofMux builds a mux exposing only the net/http/pprof handlers, kept
// apart from the public service mux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// openStore opens a persistent kvstore file under dir (dense index or
// answer cache), or nil for in-memory operation.
func openStore(dir, file string) kvstore.Store {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("qr2server: create store dir: %v", err)
	}
	store, err := kvstore.Open(filepath.Join(dir, file))
	if err != nil {
		log.Fatalf("qr2server: open store %s: %v", file, err)
	}
	// Reclaim superseded records from previous runs before serving.
	if store.DeadBytes() > 0 {
		if err := store.Compact(); err != nil {
			log.Fatalf("qr2server: compact store %s: %v", file, err)
		}
	}
	return store
}
