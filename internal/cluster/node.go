package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/wdbhttp"
	"repro/internal/wire"
)

// Config describes one replica's membership in the cluster.
type Config struct {
	// Self is this replica's id. It must appear in Peers.
	Self string
	// Peers maps every replica id — including Self — to its base URL
	// (scheme://host:port). Self's URL may be empty; a node never
	// forwards to itself.
	Peers map[string]string
	// VirtualNodes is the ring positions per peer (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval paces the active health prober started by Start
	// (default 5s).
	ProbeInterval time.Duration
	// HTTPClient issues the control plane's GETs (/healthz, /cluster/ring,
	// /cluster/obs); its timeout is also the data plane's RPC timeout
	// (default: 2s-timeout client).
	HTTPClient *http.Client
	// Probe overrides the health probe (default: GET <url>/healthz).
	// Tests use it to simulate peer death deterministically.
	Probe func(ctx context.Context, id, url string) error
	// Epochs joins the node to the process's source-epoch registry
	// (internal/epoch). When set, every peer-protocol message carries the
	// sender's epoch seq for the source: a replica seeing a higher seq
	// adopts it through the registry (wiping the affected namespace), a
	// put tagged with a lower seq is rejected instead of admitted, and the
	// probe loop gossips epochs over /cluster/ring so a
	// bump reaches even replicas with no traffic for the source. Nil
	// disables epoch exchange (every message travels untagged).
	Epochs *epoch.Registry
	// Retry applies to each peer RPC (get and put): attempts beyond the
	// first re-run only failures that indict the peer (transport errors,
	// 5xx-family opErrs) — a 4xx or a stale-epoch rejection is final.
	// The zero value is a single attempt per RPC.
	Retry resilience.Retry
	// Snapshot supplies this replica's mergeable observability snapshot.
	// When set, Register mounts GET /cluster/obs serving it and the
	// prober tick additionally runs the fleet roll-up poll (PollObs).
	// Nil disables the observability plane at this node.
	Snapshot func() *obs.Snapshot
	// OnFleetSnapshot receives each merged fleet snapshot right after a
	// roll-up poll — the service's hook for SLO accounting.
	OnFleetSnapshot func(*obs.Snapshot)
	// PeerConns sizes the per-peer persistent connection pool (default
	// DefaultPeerConns).
	PeerConns int
	// BatchWindow makes each batch flusher linger before draining,
	// trading forward latency for bigger coalesced frames. The zero
	// default is pure group commit: batches form only from lookups that
	// arrive while a flush's write syscall is in flight, which costs a
	// serial caller nothing.
	BatchWindow time.Duration
	// MaxBatch caps lookups per coalesced frame (default
	// DefaultMaxBatch).
	MaxBatch int
}

// PeerStats is one peer's membership state.
type PeerStats struct {
	ID               string `json:"id"`
	URL              string `json:"url"`
	Alive            bool   `json:"alive"`
	ConsecutiveFails int64  `json:"consecutive_fails,omitempty"`
}

// Stats is a point-in-time snapshot of the node's ring traffic.
type Stats struct {
	Self  string      `json:"self"`
	Peers []PeerStats `json:"peers"`
	// OwnedLocal counts searches whose key this replica owns, served
	// through the local pool as before clustering.
	OwnedLocal int64 `json:"owned_local"`
	// LocalHits counts foreign-owned searches served from local residency
	// anyway (a crawl set or a fallback entry this replica still holds) —
	// cheaper than any forward.
	LocalHits int64 `json:"local_hits"`
	// Forwards counts lookups sent to owners; ForwardHits
	// came back with the answer (zero web-database queries), ForwardMisses
	// did not — this replica then paid the web query and pushed the answer
	// to the owner.
	Forwards      int64 `json:"forwards"`
	ForwardHits   int64 `json:"forward_hits"`
	ForwardMisses int64 `json:"forward_misses"`
	// Fallbacks counts forwards that failed (owner dead or dying): the
	// search was served entirely through the local pool instead, and the
	// peer was marked dead.
	Fallbacks int64 `json:"fallbacks"`
	// Coalesced counts foreign-owned searches that joined an identical
	// in-flight forward instead of issuing their own.
	Coalesced int64 `json:"coalesced"`
	// AdmitsSent / AdmitErrors count asynchronous pushes of locally
	// computed answers to their owners.
	AdmitsSent  int64 `json:"admits_sent"`
	AdmitErrors int64 `json:"admit_errors"`
	// PeerGets / PeerGetHits / PeerPuts count the server side: lookups and
	// admissions this replica handled for its peers.
	PeerGets    int64 `json:"peer_gets"`
	PeerGetHits int64 `json:"peer_get_hits"`
	PeerPuts    int64 `json:"peer_puts"`
	// PeerStalePuts counts peer admissions rejected because they were
	// tagged with an older source epoch than this replica serves under —
	// a pre-change answer that must not enter the post-change cache.
	PeerStalePuts int64 `json:"peer_stale_puts"`
	// EpochAdopts counts higher source epochs this replica adopted from
	// peers (each adoption wiped the affected namespace).
	EpochAdopts int64 `json:"epoch_adopts"`
	// Strays is the number of tracked fallback-admitted entries whose
	// owner was unreachable when they were cached locally; Rehomed counts
	// strays pushed back to their recovered owner and released.
	Strays  int   `json:"strays"`
	Rehomed int64 `json:"rehomed"`
	// Transport is the peer transport snapshot (frames, batches, dials,
	// per-peer live connections).
	Transport *TransportStats `json:"transport,omitempty"`
}

// Node is one replica's view of the cluster: the ring, the peer health
// table, the registered sources and the peer-protocol client.
type Node struct {
	self   string
	urls   map[string]string
	ring   *Ring
	health *health
	hc     *http.Client
	epochs *epoch.Registry  // nil without epoch exchange
	retry  resilience.Retry // per-RPC retry policy (zero: single attempt)

	// transport is the peer-protocol client. v2conns tracks established
	// server-side connections for CloseV2Conns.
	transport *transport
	v2mu      sync.Mutex
	v2conns   map[net.Conn]struct{}

	// The fleet observability roll-up (see obs.go). snapshotFn exports
	// the local snapshot; onFleet receives each merged fleet snapshot.
	snapshotFn    func() *obs.Snapshot
	onFleet       func(*obs.Snapshot)
	fleetMu       sync.Mutex
	fleetMerged   *obs.Snapshot
	fleetReplicas map[string]*obs.Snapshot
	fleetAt       time.Time

	mu      sync.Mutex
	sources map[string]*clusterSource
	flights map[string]*flight

	// strays tracks answers this replica admitted locally although
	// another replica owns their key — fallback serves while the owner
	// was unreachable, and owned serves while this replica was only the
	// ring successor of a dead true owner. When the owner recovers, the
	// re-homing pass pushes each stray to it and releases the local copy.
	strayMu sync.Mutex
	strays  map[strayKey]relation.Predicate

	admits sync.WaitGroup

	ownedLocal    atomic.Int64
	localHits     atomic.Int64
	forwards      atomic.Int64
	forwardHits   atomic.Int64
	forwardMisses atomic.Int64
	fallbacks     atomic.Int64
	coalesced     atomic.Int64
	admitsSent    atomic.Int64
	admitErrors   atomic.Int64
	peerGets      atomic.Int64
	peerGetHits   atomic.Int64
	peerPuts      atomic.Int64
	peerStalePuts atomic.Int64
	epochAdopts   atomic.Int64
	rehomed       atomic.Int64
}

// strayKey identifies one locally admitted foreign-owned answer.
type strayKey struct{ ns, key string }

// flight is one in-progress foreign-owned search identical concurrent
// searches wait on — the cross-replica analogue of the pool's
// singleflight, which foreign keys bypass.
type flight struct {
	done chan struct{}
	res  hidden.Result
	err  error
	// followers counts callers that joined this flight (guarded by
	// Node.mu). The leader copies its result only when someone shares
	// it — the common uncontended forward keeps the decode's slice.
	followers int
}

// New validates the membership and builds the node.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: empty self id")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self id %q not in peer list", cfg.Self)
	}
	ids := make([]string, 0, len(cfg.Peers))
	urls := make(map[string]string, len(cfg.Peers))
	for id, url := range cfg.Peers {
		if id == "" {
			return nil, errors.New("cluster: empty peer id")
		}
		// Control-plane paths are appended with a leading slash; a
		// trailing slash here would produce "//cluster/ring", which the
		// mux answers with a redirect.
		url = strings.TrimRight(url, "/")
		if id != cfg.Self && url == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", id)
		}
		ids = append(ids, id)
		urls[id] = url
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Second}
	}
	retry := cfg.Retry
	if retry.RetryIf == nil {
		// Only peer-indicting failures are worth a second attempt: a 4xx
		// or a stale-epoch rejection will not change on replay.
		retry.RetryIf = isPeerDown
	}
	n := &Node{
		self:       cfg.Self,
		urls:       urls,
		ring:       NewRing(ids, cfg.VirtualNodes),
		health:     newHealth(cfg),
		hc:         hc,
		epochs:     cfg.Epochs,
		retry:      retry,
		snapshotFn: cfg.Snapshot,
		onFleet:    cfg.OnFleetSnapshot,
		sources:    make(map[string]*clusterSource),
		flights:    make(map[string]*flight),
		strays:     make(map[strayKey]relation.Predicate),
	}
	var err error
	if n.transport, err = newTransport(n, cfg); err != nil {
		return nil, err
	}
	n.health.onRevive = func(id string) {
		// Clear the dial backoff the outage left behind before the
		// re-homing pass, so the pushed strays dial straight away.
		n.transport.reset(id)
		n.peerRevived(id)
	}
	return n, nil
}

// Self returns this replica's id.
func (n *Node) Self() string { return n.self }

// Start runs the active health prober until ctx is cancelled. Passive
// detection (failed forwards) works without it; the prober's job is
// noticing recoveries — and, with an epoch registry, gossiping source
// epochs so a bump reaches replicas that see no traffic for the source —
// so deployments should run it.
func (n *Node) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(n.health.interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				n.health.check(ctx, false)
				n.Gossip(ctx)
				n.PollObs(ctx)
			}
		}
	}()
}

// Gossip pulls /cluster/ring from every alive peer and adopts any higher
// source epoch it reports, wiping the affected local namespaces. This is
// the row that makes an epoch bump reach a replica even when no request
// for the source ever crosses between them; get/put exchanges converge
// the busy paths faster. No-op without an epoch registry.
func (n *Node) Gossip(ctx context.Context) {
	if n.epochs == nil {
		return
	}
	for id, url := range n.urls {
		if id == n.self || !n.health.alive(id) {
			continue
		}
		var doc ringDoc
		if err := n.getJSON(ctx, url+"/cluster/ring", &doc); err != nil {
			continue // gossip is opportunistic; the health prober owns indictment
		}
		for src, seq := range doc.Epochs {
			n.observeScoped(src, seq, n.ringScope(src, doc.Scopes[src]))
		}
	}
}

// ringDoc is the JSON response of GET /cluster/ring.
type ringDoc struct {
	Self         string      `json:"self"`
	VirtualNodes int         `json:"virtual_nodes"`
	Peers        []PeerStats `json:"peers"`
	// Epochs maps each registered source to this replica's epoch seq —
	// the gossip payload peers pull to converge on bumps. Scopes carries,
	// for sources whose latest transition was region-confined, the rect
	// it was confined to in internal/wire's rect layout (base64 in the
	// JSON); absent entries adopt as full wipes.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	Scopes map[string][]byte `json:"scopes,omitempty"`
}

// ringScope decodes a /cluster/ring scope against the local schema of
// source src. It is nil when absent, undecodable, or for a source this
// replica does not serve; the adoption then falls back to a full wipe.
func (n *Node) ringScope(src string, b []byte) *region.Rect {
	cs, ok := n.source(src)
	if b == nil || !ok {
		return nil
	}
	r := wire.NewReader(b)
	sc := r.Rect(cs.Schema())
	if r.Finish() != nil {
		return nil
	}
	return &sc
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	st := n.Stats()
	doc := ringDoc{
		Self:         n.self,
		VirtualNodes: len(n.ring.points) / max(1, len(n.ring.ids)),
		Peers:        st.Peers,
	}
	if n.epochs != nil {
		doc.Epochs = make(map[string]uint64)
		n.mu.Lock()
		for name := range n.sources {
			seq, scope := n.epochOf(name)
			doc.Epochs[name] = seq
			if scope != nil {
				if doc.Scopes == nil {
					doc.Scopes = make(map[string][]byte)
				}
				doc.Scopes[name] = wire.AppendRect(nil, *scope)
			}
		}
		n.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, doc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// getJSON is the control plane's client: one plain HTTP GET of a peer's
// JSON document (/cluster/ring, /cluster/obs), pulled once per probe
// tick and never on a request's path.
func (n *Node) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s returned %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// seqOf returns this replica's epoch seq for a source, 0 without a
// registry (messages travel untagged and no gating applies).
func (n *Node) seqOf(ns string) uint64 {
	if n.epochs == nil {
		return 0
	}
	return n.epochs.Seq(ns)
}

// observe adopts a remotely seen epoch into the local registry. The
// registry fans the adoption out to its subscribers — the namespace wipe
// and the dense-index wipe — before returning.
func (n *Node) observe(ns string, seq uint64) {
	if n.epochs == nil || seq == 0 {
		return
	}
	if n.epochs.Observe(ns, seq) {
		n.epochAdopts.Add(1)
	}
}

// observeScoped is observe carrying the region the sender's transition
// into seq was confined to. A scope adopts via ObserveRegion, whose
// subscribers wipe only the intersecting slice (the registry itself
// escalates to a full wipe when the adoption skips seqs); a nil scope
// falls back to the full-wipe observe — the peer could not express the
// region, so everything must go.
func (n *Node) observeScoped(ns string, seq uint64, sc *region.Rect) {
	if n.epochs == nil || seq == 0 {
		return
	}
	if sc != nil {
		if n.epochs.ObserveRegion(ns, seq, *sc) {
			n.epochAdopts.Add(1)
		}
		return
	}
	n.observe(ns, seq)
}

// epochOf reads a source's live epoch seq and, when its latest
// transition was region-confined, that region. Both come from one
// registry snapshot, so the scope always describes the transition into
// exactly the returned seq.
func (n *Node) epochOf(ns string) (uint64, *region.Rect) {
	if n.epochs == nil {
		return 0, nil
	}
	e, ok := n.epochs.Get(ns)
	if !ok {
		return 0, nil
	}
	return e.Seq, e.Scope
}

// scopeAt returns the live transition's region only when seq is still
// the live epoch — the scope describes the transition into that exact
// seq and must not be attached to any other.
func (n *Node) scopeAt(ns string, seq uint64) *region.Rect {
	cur, sc := n.epochOf(ns)
	if cur != seq {
		return nil
	}
	return sc
}

// CheckNow probes every peer immediately, ignoring backoff windows, and
// returns when all probes finished. Tests and operators use it to observe
// membership deterministically.
func (n *Node) CheckNow(ctx context.Context) { n.health.check(ctx, true) }

// Quiesce blocks until every in-flight asynchronous admission has been
// delivered (or failed). Tests use it to make cluster state deterministic.
func (n *Node) Quiesce() { n.admits.Wait() }

// Stats snapshots the node counters and peer states.
func (n *Node) Stats() Stats {
	n.strayMu.Lock()
	strays := len(n.strays)
	n.strayMu.Unlock()
	st := Stats{
		Self:          n.self,
		OwnedLocal:    n.ownedLocal.Load(),
		LocalHits:     n.localHits.Load(),
		Forwards:      n.forwards.Load(),
		ForwardHits:   n.forwardHits.Load(),
		ForwardMisses: n.forwardMisses.Load(),
		Fallbacks:     n.fallbacks.Load(),
		Coalesced:     n.coalesced.Load(),
		AdmitsSent:    n.admitsSent.Load(),
		AdmitErrors:   n.admitErrors.Load(),
		PeerGets:      n.peerGets.Load(),
		PeerGetHits:   n.peerGetHits.Load(),
		PeerPuts:      n.peerPuts.Load(),
		PeerStalePuts: n.peerStalePuts.Load(),
		EpochAdopts:   n.epochAdopts.Load(),
		Strays:        strays,
		Rehomed:       n.rehomed.Load(),
		Transport:     n.transport.stats(),
	}
	peers := n.health.snapshot()
	for _, id := range n.ring.Members() {
		if id == n.self {
			st.Peers = append(st.Peers, PeerStats{ID: id, URL: n.urls[id], Alive: true})
			continue
		}
		st.Peers = append(st.Peers, peers[id])
	}
	return st
}

// owner resolves the alive owner of a namespaced key. Self is always
// alive, so ok is always true on a non-empty ring.
func (n *Node) owner(ns, key string) (string, bool) {
	return n.ring.Owner(ns+"\x00"+key, func(id string) bool {
		return id == n.self || n.health.alive(id)
	})
}

// OwnerOf reports the replica currently owning a predicate's cache key
// for a source — an operator/debug helper, and the experiment harness's
// way to construct deterministic cross-replica scenarios.
func (n *Node) OwnerOf(source string, p relation.Predicate) (string, bool) {
	return n.owner(source, qcache.KeyOf(p))
}

// Source registers a data source with the node and returns the
// cluster-aware database to serve it through: the local cache wrapped
// with ring routing. inner is the raw web database the cache decorates —
// foreign-owned misses query it directly so the answer is admitted at its
// owner, not duplicated locally. With a single-replica peer list the
// cache is returned unwrapped.
func (n *Node) Source(name string, cache *qcache.Cache, inner hidden.DB) hidden.DB {
	cs := &clusterSource{node: n, name: name, cache: cache, inner: inner}
	n.mu.Lock()
	n.sources[name] = cs
	n.mu.Unlock()
	if len(n.ring.Members()) <= 1 {
		return cache
	}
	return cs
}

// source looks up a registered source by namespace name.
func (n *Node) source(name string) (*clusterSource, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cs, ok := n.sources[name]
	return cs, ok
}

// noteStray records a locally admitted foreign-owned answer for the next
// re-homing pass.
func (n *Node) noteStray(ns, key string, p relation.Predicate) {
	n.strayMu.Lock()
	n.strays[strayKey{ns: ns, key: key}] = p
	n.strayMu.Unlock()
}

// dropStray forgets one tracked stray.
func (n *Node) dropStray(k strayKey) {
	n.strayMu.Lock()
	delete(n.strays, k)
	n.strayMu.Unlock()
}

// peerRevived is the health prober's recovery hook: it launches the
// re-homing pass for the recovered peer in the background (Quiesce waits
// for it, so tests observe it deterministically).
func (n *Node) peerRevived(id string) {
	n.admits.Add(1)
	go func() {
		defer n.admits.Done()
		n.rehome(id)
	}()
}

// rehome pushes every tracked stray the revived peer owns again back to
// it and releases the local copy, restoring the exactly-once invariant
// without waiting for LRU aging. The push is synchronous so the copy is
// only discarded once the owner holds the answer; a failed push keeps
// the stray for the peer's next recovery (and marks it dead again when
// the failure indicts it).
func (n *Node) rehome(id string) {
	n.strayMu.Lock()
	batch := make(map[strayKey]relation.Predicate, len(n.strays))
	for k, p := range n.strays {
		batch[k] = p
	}
	n.strayMu.Unlock()
	for k, pred := range batch {
		owner, ok := n.owner(k.ns, k.key)
		if !ok || owner != id {
			continue // still not (or no longer) this peer's key
		}
		cs, ok := n.source(k.ns)
		if !ok {
			n.dropStray(k)
			continue
		}
		// The seq is read BEFORE the Peek (as in v2Lookup): a bump
		// landing in between would otherwise tag a pre-change answer
		// with the post-bump epoch and carry it past the owner's wipe.
		seq := n.seqOf(k.ns)
		res, resident := cs.cache.Peek(pred)
		if !resident {
			n.dropStray(k) // aged out on its own; nothing to move
			continue
		}
		if err := n.put(context.Background(), owner, k.ns, cs.Schema(), k.key, res, seq); err != nil {
			if isPeerDown(err) {
				n.health.markDead(owner)
				return // the peer died again; keep the remaining strays
			}
			continue
		}
		cs.cache.Discard(pred)
		n.rehomed.Add(1)
		n.dropStray(k)
	}
}

// clusterSource decorates one source's answer cache with ring routing.
// It implements hidden.DB (and crawl.Admitter via AdmitCrawl), so the
// reranking engines underneath are as unaware of the cluster as they are
// of the cache.
type clusterSource struct {
	node  *Node
	name  string
	cache *qcache.Cache
	inner hidden.DB
}

// Name implements hidden.DB.
func (s *clusterSource) Name() string { return s.cache.Name() }

// Schema implements hidden.DB.
func (s *clusterSource) Schema() *relation.Schema { return s.cache.Schema() }

// SystemK implements hidden.DB.
func (s *clusterSource) SystemK() int { return s.cache.SystemK() }

// AdmitCrawl implements crawl.Admitter by delegating to the local cache:
// a crawled region's match set stays on the replica that paid for the
// crawl (it also lives in that replica's dense index), and the local
// residency check in Search serves it regardless of key ownership.
func (s *clusterSource) AdmitCrawl(pred relation.Predicate, tuples []relation.Tuple) {
	s.cache.AdmitCrawl(pred, tuples)
}

// AdmitCrawlAt implements crawl.EpochAdmitter, delegating the fenced
// admission to the local cache.
func (s *clusterSource) AdmitCrawlAt(pred relation.Predicate, tuples []relation.Tuple, epochSeq uint64) {
	s.cache.AdmitCrawlAt(pred, tuples, epochSeq)
}

// Search implements hidden.DB with the ring protocol:
//
//   - keys this replica owns are served through the local pool exactly as
//     before clustering (lookup, containment, coalescing, web query);
//   - foreign-owned keys first check local residency (a crawl set or a
//     fallback entry makes the forward unnecessary), then proxy the cache
//     lookup to the owner; an owner hit costs zero web-database queries;
//   - on an owner miss this replica pays the web query and asynchronously
//     admits the answer to the owner, so the next replica's forward hits;
//   - a failed forward marks the owner dead and falls back to the local
//     pool — requests never fail because a peer did.
func (s *clusterSource) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	n := s.node
	tr := obs.FromContext(ctx)
	// The ring-route span covers owner resolution: hit means the key is
	// owned (or adopted) locally, miss means it belongs to a peer.
	tmR := tr.Start(obs.StageRingRoute)
	key := qcache.KeyOf(p)
	owner, ok := n.owner(s.name, key)
	if !ok || owner == n.self {
		tmR.End(obs.OutcomeHit)
		n.ownedLocal.Add(1)
		res, err := s.cache.Search(ctx, p)
		// If this replica owns the key only as the ring successor of a
		// dead peer, the admission is a stray: when the true owner
		// returns, ownership snaps back and the re-homing pass moves the
		// answer to it. The full-ring lookup runs only while some peer is
		// actually dead.
		if err == nil && !res.Degraded && owner == n.self && n.health.anyDead() {
			if trueOwner, ok := n.ring.Owner(s.name+"\x00"+key, nil); ok && trueOwner != n.self {
				n.noteStray(s.name, key, p)
			}
		}
		return res, err
	}
	tmR.End(obs.OutcomeMiss)
	if res, ok := s.cache.Peek(p); ok {
		n.localHits.Add(1)
		return res, nil
	}
	fkey := s.name + "\x00" + key
	for {
		n.mu.Lock()
		if fl, ok := n.flights[fkey]; ok {
			fl.followers++
			n.mu.Unlock()
			n.coalesced.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return hidden.Result{}, ctx.Err()
			}
			if fl.err == nil {
				return copyTuples(fl.res), nil
			}
			if isContextErr(fl.err) && ctx.Err() == nil {
				continue // the leader died with its own context; retry
			}
			return hidden.Result{}, fl.err
		}
		fl := &flight{done: make(chan struct{})}
		n.flights[fkey] = fl
		n.mu.Unlock()

		res, err := s.searchForeign(ctx, owner, key, p)
		fl.res, fl.err = res, err
		n.mu.Lock()
		delete(n.flights, fkey)
		// Read after the delete, under the same lock followers increment
		// under: no follower can join once the flight is unpublished.
		shared := fl.followers > 0
		n.mu.Unlock()
		close(fl.done)
		if err != nil {
			return hidden.Result{}, err
		}
		if shared {
			return copyTuples(res), nil
		}
		return res, nil
	}
}

// searchForeign is the leader's path for a foreign-owned key: proxy the
// lookup, fall back on peer failure, pay-and-push on an owner miss. key
// is p's canonical cache key, computed once for routing.
func (s *clusterSource) searchForeign(ctx context.Context, owner, key string, p relation.Predicate) (hidden.Result, error) {
	n := s.node
	n.forwards.Add(1)
	// The epoch this search runs under is captured before any network
	// round trip: the eventual put is tagged with it, so if the
	// epoch bumps while the web query is in flight the owner rejects the
	// (possibly pre-change) answer instead of installing it.
	seq := n.seqOf(s.name)
	tmF := obs.FromContext(ctx).Start(obs.StagePeerForward)
	res, found, err := n.remoteGet(ctx, owner, s.name, s.Schema(), key, seq)
	if err != nil {
		tmF.End(obs.OutcomeError)
		if isContextErr(err) && ctx.Err() != nil {
			return hidden.Result{}, err
		}
		// Transport-level failures indict the peer and exclude it from
		// the ring; application-level refusals (a healthy peer without
		// this namespace) do not. Either way the user's request is served
		// from the local pool.
		if isPeerDown(err) {
			n.health.markDead(owner)
		}
		n.fallbacks.Add(1)
		res, err := s.cache.Search(ctx, p)
		if err == nil && !res.Degraded {
			// The answer was admitted locally although owner owns the
			// key: track it for re-homing when the owner recovers.
			n.noteStray(s.name, key, p)
		}
		return res, err
	}
	if found {
		tmF.End(obs.OutcomeHit)
		n.forwardHits.Add(1)
		return res, nil
	}
	tmF.End(obs.OutcomeMiss)
	n.forwardMisses.Add(1)
	res, err = s.inner.Search(ctx, p)
	if err != nil {
		return hidden.Result{}, err
	}
	// A degraded answer (fabricated while the source was unreachable) is
	// served to this request only — pushing it to the owner would spread
	// the fabrication cluster-wide.
	if !res.Degraded {
		n.asyncAdmit(owner, s.name, s.Schema(), key, copyTuples(res), seq)
	}
	return res, nil
}

// EpochSeq implements crawl.Epocher by delegating to the local cache, so
// a crawl running through the cluster decorator is epoch-gated exactly
// as one running against the bare cache.
func (s *clusterSource) EpochSeq() uint64 { return s.cache.EpochSeq() }

// copyTuples returns a result whose tuple slice the caller may mutate.
func copyTuples(res hidden.Result) hidden.Result {
	return hidden.Result{
		Tuples:   append([]relation.Tuple(nil), res.Tuples...),
		Overflow: res.Overflow,
		Degraded: res.Degraded,
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

var _ hidden.DB = (*clusterSource)(nil)
