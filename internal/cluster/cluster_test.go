package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/qcache"
	"repro/internal/relation"
	"repro/internal/resilience"
)

// replica is one simulated service replica: its own web-database handle
// (counting queries), its own answer cache, its cluster node, and an HTTP
// listener that can be toggled "down" without losing the process state —
// modelling a replica behind a dead network path.
type replica struct {
	id    string
	inner *hidden.Local
	cache *qcache.Cache
	node  *Node
	db    hidden.DB
	srv   *httptest.Server
	mux   *http.ServeMux
	down  atomic.Bool
	// fail makes the next N requests 503 — a transient blip, unlike down.
	fail atomic.Int64
	// upgradeStatus, when non-zero, answers the peer-session Upgrade with
	// that status instead of switching protocols.
	upgradeStatus atomic.Int64
	// v1Gets counts requests to the deleted /cluster/get data endpoint.
	v1Gets atomic.Int64
}

// kill simulates process death as seen from the network: inbound HTTP is
// refused and established peer-protocol connections are severed. The
// down flag alone cannot model the latter — hijacked v2 connections
// bypass the middleware — while a real crash drops the TCP sockets too.
func (r *replica) kill() {
	r.down.Store(true)
	r.node.CloseV2Conns()
}

// newCluster builds n replicas over one shared catalog. Every replica
// fronts the same (conceptual) web database; total web-database cost is
// the sum of the replicas' inner query counts.
func newCluster(t testing.TB, n int, opts ...func(*Config)) []*replica {
	t.Helper()
	cat := datagen.Uniform(3000, 2, 11)
	reps := make([]*replica, n)
	for i := range reps {
		r := &replica{id: string(rune('a' + i))}
		r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if r.down.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			if r.fail.Load() > 0 && r.fail.Add(-1) >= 0 {
				http.Error(w, "transient", http.StatusServiceUnavailable)
				return
			}
			switch req.URL.Path {
			case "/cluster/get":
				r.v1Gets.Add(1)
			case "/cluster/v2":
				if code := r.upgradeStatus.Load(); code != 0 {
					w.WriteHeader(int(code))
					return
				}
			}
			r.mux.ServeHTTP(w, req)
		}))
		t.Cleanup(r.srv.Close)
		reps[i] = r
	}
	peers := map[string]string{}
	for _, r := range reps {
		peers[r.id] = r.srv.URL
	}
	for _, r := range reps {
		inner, err := hidden.NewLocal(cat.Name, cat.Rel, 50, cat.Rank)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := qcache.New(inner, qcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Self: r.id, Peers: peers, VirtualNodes: 32}
		for _, o := range opts {
			o(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		node.Register(mux)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		// httptest's Close does not reach hijacked v2 connections; the
		// node tracks and closes those (and its pooled client conns).
		t.Cleanup(node.Close)
		r.inner, r.cache, r.node, r.mux = inner, cache, node, mux
		r.db = node.Source(cat.Name, cache, inner)
	}
	return reps
}

func window(lo float64) relation.Predicate {
	return relation.Predicate{}.WithInterval(0, relation.Closed(lo, lo+15))
}

// predOwnedBy finds a window predicate whose key a specific replica owns.
func predOwnedBy(t testing.TB, reps []*replica, want string) relation.Predicate {
	t.Helper()
	any := reps[0]
	name := any.db.Name()
	for i := 0; i < 1000; i++ {
		p := window(float64(i * 7))
		if owner, ok := any.node.owner(name, qcache.KeyOf(p)); ok && owner == want {
			return p
		}
	}
	t.Fatalf("no probe predicate owned by %s", want)
	return relation.Predicate{}
}

func totalQueries(reps []*replica) int64 {
	var n int64
	for _, r := range reps {
		n += r.inner.QueryCount()
	}
	return n
}

// TestForwardProtocol: a foreign-owned search pays the web query once,
// pushes the answer to its owner, and every later search — from any
// replica — is served by the owner with zero further web queries.
func TestForwardProtocol(t *testing.T) {
	reps := newCluster(t, 3)
	ctx := context.Background()
	a, b, c := reps[0], reps[1], reps[2]
	p := predOwnedBy(t, reps, b.id)

	res, err := a.db.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	if got := a.node.Stats(); got.ForwardMisses != 1 || got.AdmitsSent != 1 {
		t.Fatalf("first foreign search: %+v", got)
	}
	if a.inner.QueryCount() != 1 || b.inner.QueryCount() != 0 {
		t.Fatalf("first search queried a=%d b=%d times", a.inner.QueryCount(), b.inner.QueryCount())
	}
	// The answer now lives at its owner, once: resident at b, not at a.
	if _, ok := b.cache.Peek(p); !ok {
		t.Fatal("owner b does not hold the pushed answer")
	}
	if a.cache.Len() != 0 {
		t.Fatalf("non-owner a admitted %d entries locally", a.cache.Len())
	}

	// A second replica's search forwards and hits: zero web queries.
	before := totalQueries(reps)
	res2, err := c.db.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if totalQueries(reps) != before {
		t.Fatal("forward hit still paid a web query")
	}
	if cs := c.node.Stats(); cs.ForwardHits != 1 {
		t.Fatalf("c stats: %+v", cs)
	}
	if len(res2.Tuples) != len(res.Tuples) || res2.Overflow != res.Overflow {
		t.Fatalf("forwarded answer differs: %d/%v vs %d/%v",
			len(res2.Tuples), res2.Overflow, len(res.Tuples), res.Overflow)
	}
	for i := range res.Tuples {
		if res.Tuples[i].ID != res2.Tuples[i].ID {
			t.Fatalf("tuple %d: id %d vs %d", i, res.Tuples[i].ID, res2.Tuples[i].ID)
		}
	}

	// The owner itself serves from its pool.
	before = totalQueries(reps)
	if _, err := b.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if totalQueries(reps) != before {
		t.Fatal("owner search paid a web query for a resident answer")
	}
	if bs := b.node.Stats(); bs.OwnedLocal != 1 || bs.PeerGets != 2 || bs.PeerGetHits >= bs.PeerGets {
		// Two peer gets: a's miss and c's hit.
		t.Fatalf("b stats: %+v", bs)
	}
}

// TestRetryRescuesTransientPeerBlip: with Config.Retry set, a forward
// that eats a one-off 503 from the owner is replayed and still hits —
// no fallback-local serve, no duplicate web query, no dead-marking of a
// healthy peer that dropped one request.
func TestRetryRescuesTransientPeerBlip(t *testing.T) {
	reps := newCluster(t, 2, func(c *Config) {
		c.Retry = resilience.Retry{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}
	})
	ctx := context.Background()
	a, b := reps[0], reps[1]
	p := predOwnedBy(t, reps, b.id)

	// Warm: a forwards (miss), pays the web query, pushes the answer to b.
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	if _, ok := b.cache.Peek(p); !ok {
		t.Fatal("owner b does not hold the pushed answer")
	}

	// One transient 503 at b: the forward's first attempt fails, the
	// retry lands, and the cluster serves the cached answer for free.
	b.fail.Store(1)
	before := totalQueries(reps)
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if got := totalQueries(reps); got != before {
		t.Fatalf("transient blip forced %d extra web queries despite retry", got-before)
	}
	st := a.node.Stats()
	if st.Fallbacks != 0 || st.ForwardHits != 1 {
		t.Fatalf("a stats after blip: %+v (want 0 fallbacks, 1 forward hit)", st)
	}
	for _, ps := range st.Peers {
		if ps.ID == b.id && !ps.Alive {
			t.Fatal("a transient blip marked the healthy owner dead")
		}
	}
}

// TestDeadPeerFallbackAndRecovery: a mid-run peer death degrades to
// fallback-local serving with zero request failures; the prober revives
// the peer and ownership (and its cached answers) recover.
func TestDeadPeerFallbackAndRecovery(t *testing.T) {
	reps := newCluster(t, 3)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	p := predOwnedBy(t, reps, b.id)

	// Warm: the answer ends up at owner b.
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()

	// Kill b. The forward fails, the request is served locally anyway.
	b.kill()
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatalf("request failed during peer outage: %v", err)
	}
	st := a.node.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("expected 1 fallback: %+v", st)
	}
	if a.node.health.alive(b.id) {
		t.Fatal("failed forward did not mark b dead")
	}

	// With b known dead the ring excludes it: the same key resolves to an
	// alive successor. The first round may pay one query re-homing the
	// answer at the new owner (a's fallback entry serves a itself for
	// free); after that, every replica serves it without web queries.
	before := totalQueries(reps)
	for _, r := range []*replica{a, reps[2]} {
		if _, err := r.db.Search(ctx, p); err != nil {
			t.Fatalf("request failed with b excluded: %v", err)
		}
		r.node.Quiesce()
	}
	if got := totalQueries(reps); got > before+1 {
		t.Fatalf("serving with b dead paid %d web queries, want at most 1 (re-homing)", got-before)
	}
	if owner, _ := a.node.owner(a.db.Name(), qcache.KeyOf(p)); owner == b.id {
		t.Fatal("dead peer still owns the key")
	}
	before = totalQueries(reps)
	for _, r := range []*replica{a, reps[2]} {
		if _, err := r.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
		r.node.Quiesce()
	}
	if got := totalQueries(reps); got != before {
		t.Fatalf("steady degraded state still paid %d web queries", got-before)
	}

	// Revive b; an explicit probe pass restores membership and ownership.
	b.down.Store(false)
	a.node.CheckNow(ctx)
	reps[2].node.CheckNow(ctx)
	if owner, _ := a.node.owner(a.db.Name(), qcache.KeyOf(p)); owner != b.id {
		t.Fatalf("ownership did not recover: owner %q", owner)
	}
	// b kept its cache across the outage; post-recovery serving is free —
	// either a forward hit at b or a replica's own fallback copy.
	before = totalQueries(reps)
	if _, err := reps[2].db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if totalQueries(reps) != before {
		t.Fatal("post-recovery forward paid a web query")
	}
	if cs := reps[2].node.Stats(); cs.ForwardHits == 0 && cs.LocalHits == 0 {
		t.Fatalf("post-recovery search served from nowhere cheap: %+v", cs)
	}
}

// TestProbeBackoff: a dead peer is not probed again before its backoff
// window, and a successful probe resets the failure count.
func TestProbeBackoff(t *testing.T) {
	var probes atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	probe := func(ctx context.Context, id, url string) error {
		probes.Add(1)
		if fail.Load() {
			return fmt.Errorf("down")
		}
		return nil
	}
	n, err := New(Config{
		Self:  "a",
		Peers: map[string]string{"a": "", "b": "http://unused"},
		Probe: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.health.check(ctx, false) // fails: dead, backoff scheduled
	if n.health.alive("b") {
		t.Fatal("b alive after failed probe")
	}
	got := probes.Load()
	n.health.check(ctx, false) // inside the backoff window: skipped
	if probes.Load() != got {
		t.Fatal("dead peer probed inside its backoff window")
	}
	n.health.check(ctx, true) // forced: probed despite backoff
	if probes.Load() != got+1 {
		t.Fatal("forced check did not probe")
	}
	fail.Store(false)
	n.CheckNow(ctx)
	if !n.health.alive("b") {
		t.Fatal("successful probe did not revive b")
	}
	st := n.Stats()
	for _, pr := range st.Peers {
		if pr.ID == "b" && pr.ConsecutiveFails != 0 {
			t.Fatalf("revived peer keeps failure count: %+v", pr)
		}
	}
}

// TestRaceForwardVsLocalAdmit drives the same foreign-owned key from
// every replica at once — forwards, owner-side lookups, local admissions
// racing — and checks results stay consistent and no request fails.
// go test -race gives the memory-model teeth.
func TestRaceForwardVsLocalAdmit(t *testing.T) {
	reps := newCluster(t, 3)
	ctx := context.Background()
	p := predOwnedBy(t, reps, reps[1].id)
	const workers = 6
	var wg sync.WaitGroup
	errc := make(chan error, 3*workers)
	lens := make(chan int, 3*workers)
	for _, r := range reps {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(db hidden.DB) {
				defer wg.Done()
				res, err := db.Search(ctx, p)
				if err != nil {
					errc <- err
					return
				}
				lens <- len(res.Tuples)
			}(r.db)
		}
	}
	wg.Wait()
	close(errc)
	close(lens)
	if err := <-errc; err != nil {
		t.Fatalf("concurrent search failed: %v", err)
	}
	want := -1
	for l := range lens {
		if want < 0 {
			want = l
		}
		if l != want {
			t.Fatalf("divergent result sizes: %d vs %d", l, want)
		}
	}
	for _, r := range reps {
		r.node.Quiesce()
	}
	// The cluster raced on a cold key: several replicas may have paid the
	// query before any admission landed, but it stays a handful, not one
	// per worker.
	if q := totalQueries(reps); q < 1 || q > int64(len(reps)) {
		t.Fatalf("cold racing key cost %d web queries", q)
	}
	// Steady state: one more search from every replica is free.
	before := totalQueries(reps)
	for _, r := range reps {
		if _, err := r.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if totalQueries(reps) != before {
		t.Fatal("steady-state searches still paid web queries")
	}
}

// TestCrawlSetsServeLocally: crawl-admitted region sets are replica-local
// and the pre-forward residency check serves them even for foreign keys.
func TestCrawlSetsServeLocally(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a := reps[0]
	region := relation.Predicate{}.WithInterval(0, relation.Closed(200, 400))
	// Assemble the region's match set the way crawl.All would and admit it.
	all, err := a.inner.Search(ctx, relation.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	_ = all
	var tuples []relation.Tuple
	for _, tp := range crawlTuples(t, a.inner, region) {
		tuples = append(tuples, tp)
	}
	if adm, ok := a.db.(interface {
		AdmitCrawl(relation.Predicate, []relation.Tuple)
	}); ok {
		adm.AdmitCrawl(region, tuples)
	} else {
		t.Fatal("cluster source does not implement crawl.Admitter")
	}
	// An in-region window under system-k is served locally whatever the
	// ring says, with zero web queries and zero forwards.
	before := totalQueries(reps)
	fwdBefore := a.node.Stats().Forwards
	p := relation.Predicate{}.WithInterval(0, relation.Closed(210, 214))
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if totalQueries(reps) != before {
		t.Fatal("in-region predicate paid a web query")
	}
	if st := a.node.Stats(); st.Forwards != fwdBefore {
		t.Fatal("in-region predicate was forwarded")
	}
}

// crawlTuples enumerates a region's full match set by sweeping narrow
// windows (a miniature stand-in for crawl.All).
func crawlTuples(t *testing.T, db *hidden.Local, region relation.Predicate) []relation.Tuple {
	t.Helper()
	ctx := context.Background()
	seen := map[int64]relation.Tuple{}
	iv := region.Conditions()[0].Iv
	for lo := iv.Lo; lo < iv.Hi; lo += 2 {
		hi := lo + 2
		if hi > iv.Hi {
			hi = iv.Hi
		}
		res, err := db.Search(ctx, relation.Predicate{}.WithInterval(0, relation.Closed(lo, hi)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow {
			t.Fatal("crawl window overflowed; narrow the step")
		}
		for _, tp := range res.Tuples {
			seen[tp.ID] = tp
		}
	}
	db.ResetQueryCount()
	out := make([]relation.Tuple, 0, len(seen))
	for _, tp := range seen {
		out = append(out, tp)
	}
	return out
}

// TestSingleReplicaPassthrough: a one-entry peer list short-circuits to
// the plain cache, no protocol in the path.
func TestSingleReplicaPassthrough(t *testing.T) {
	cat := datagen.Uniform(500, 2, 3)
	inner, err := hidden.NewLocal(cat.Name, cat.Rel, 20, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := qcache.New(inner, qcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(Config{Self: "solo", Peers: map[string]string{"solo": ""}})
	if err != nil {
		t.Fatal(err)
	}
	db := node.Source(cat.Name, cache, inner)
	if db != hidden.DB(cache) {
		t.Fatal("single-replica Source did not return the cache unwrapped")
	}
}

// TestConfigValidation rejects memberships a replica cannot serve.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "x", Peers: map[string]string{"a": "u"}}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
	if _, err := New(Config{Self: "", Peers: map[string]string{"a": "u"}}); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := New(Config{Self: "a", Peers: map[string]string{"a": "", "b": ""}}); err == nil {
		t.Fatal("peer without URL accepted")
	}
	// The peer session dials host:port of a plain-http URL; anything else
	// could never be reached and must not boot.
	for _, url := range []string{"b.example:8080", "https://b.example:8080", "http://"} {
		if _, err := New(Config{Self: "a", Peers: map[string]string{"a": "", "b": url}}); err == nil {
			t.Fatalf("undialable peer URL %q accepted", url)
		}
	}
}

// TestQuiesceWaitsForAdmits: Quiesce returns only after outstanding
// pushes landed, so tests can observe deterministic cluster state.
func TestQuiesceWaitsForAdmits(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	p := predOwnedBy(t, reps, b.id)
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() { a.node.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("Quiesce hung")
	}
	if _, ok := b.cache.Peek(p); !ok {
		t.Fatal("admit not visible after Quiesce")
	}
}

// TestApplicationErrorDoesNotKillPeer: a healthy peer answering 4xx (a
// replica configured without this namespace) must not be excluded from
// the ring — only transport-level failures and 5xx indict the peer.
// The user's request is still served from the local pool.
func TestApplicationErrorDoesNotKillPeer(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	// Simulate a misconfigured peer: b never registered the source, so
	// its lookups answer a 404-family opErr while /healthz stays green.
	b.node.mu.Lock()
	delete(b.node.sources, a.db.Name())
	b.node.mu.Unlock()
	p := predOwnedBy(t, reps, b.id)
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatalf("request failed on a peer 404: %v", err)
	}
	st := a.node.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("404 forward did not fall back locally: %+v", st)
	}
	if !a.node.health.alive(b.id) {
		t.Fatal("healthy peer marked dead by an application-level 404")
	}
}
