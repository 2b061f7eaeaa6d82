package cluster

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/relation"
	"repro/internal/resilience"
)

// predsOwnedBy collects k distinct window predicates all owned by one
// replica — distinct, so neither the singleflight coalescer nor the
// cache collapses concurrent lookups into one.
func predsOwnedBy(t testing.TB, reps []*replica, want string, k int) []relation.Predicate {
	t.Helper()
	name := reps[0].db.Name()
	out := make([]relation.Predicate, 0, k)
	for i := 0; i < 5000 && len(out) < k; i++ {
		p := window(float64(i * 7))
		if owner, ok := reps[0].node.owner(name, qcache.KeyOf(p)); ok && owner == want {
			out = append(out, p)
		}
	}
	if len(out) < k {
		t.Fatalf("found only %d/%d predicates owned by %s", len(out), k, want)
	}
	return out
}

func transportOf(t testing.TB, r *replica) *TransportStats {
	t.Helper()
	ts := r.node.Stats().Transport
	if ts == nil {
		t.Fatal("node has no transport stats")
	}
	return ts
}

// liveConns is how many live pooled connections from holds to to.
func liveConns(t testing.TB, from, to *replica) int {
	t.Helper()
	for _, ps := range transportOf(t, from).Peers {
		if ps.ID == to.id {
			return ps.Conns
		}
	}
	return 0
}

// TestV2NegotiationAndConnReuse: the first forward opens a peer session
// on the owner's ordinary HTTP listener; later forwards reuse the pooled
// connections instead of dialing per request.
func TestV2NegotiationAndConnReuse(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)

	// Warm: every answer ends up resident at owner b.
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()
	// Serve the same set repeatedly: all forward hits over v2.
	for round := 0; round < 3; round++ {
		for _, p := range preds {
			if _, err := a.db.Search(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := transportOf(t, a)
	if st.V2Dials == 0 || st.V2Dials > int64(DefaultPeerConns) {
		t.Fatalf("%d forwards dialed %d times, want 1..%d (pooled reuse)", 4*len(preds), st.V2Dials, DefaultPeerConns)
	}
	if st.FramesSent == 0 || st.FramesRecv == 0 {
		t.Fatalf("no frames moved: %+v", st)
	}
	if st.V2DialFails != 0 {
		t.Fatalf("healthy peer failed %d dials", st.V2DialFails)
	}
	if liveConns(t, a, b) == 0 {
		t.Fatalf("no live pooled conn to %s: %+v", b.id, st)
	}
	if ns := a.node.Stats(); ns.ForwardHits < int64(3*len(preds)) {
		t.Fatalf("expected %d forward hits: %+v", 3*len(preds), ns)
	}
}

// TestInFlightFailoverNoDroppedCallers: persistent connections are
// severed over and over while concurrent forwards are in flight. Every
// caller whose frame dies mid-connection replays it on a fresh dial:
// zero search errors, zero extra web queries, zero fallback-local
// serves — the owner's listener is up the whole time, only established
// connections are being murdered. Nothing may reach for the deleted
// JSON-over-HTTP data path, which now 404s.
func TestInFlightFailoverNoDroppedCallers(t *testing.T) {
	reps := newCluster(t, 2, churnRetry)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()
	warmQueries := totalQueries(reps)

	var wg sync.WaitGroup
	var searchErrs atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g+i)%len(preds)]); err != nil {
					searchErrs.Add(1)
					t.Errorf("dropped caller: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		severAndRedial(t, a, b)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if searchErrs.Load() != 0 {
		t.Fatalf("%d searches failed during connection churn", searchErrs.Load())
	}
	if got := totalQueries(reps); got != warmQueries {
		t.Fatalf("connection churn paid %d web queries", got-warmQueries)
	}
	if st := a.node.Stats(); st.Fallbacks != 0 {
		t.Fatalf("connection churn caused %d fallback-local serves: %+v", st.Fallbacks, st)
	}
	if got := b.v1Gets.Load(); got != 0 {
		t.Fatalf("owner saw %d requests to /cluster/get; the data plane rides frames only", got)
	}
	resp, err := http.Get(b.srv.URL + "/cluster/get")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /cluster/get answered %s, want 404", resp.Status)
	}
}

// churnRetry gives the churn tests a small per-RPC retry: a replay can
// land on the pool's other connection before its reader has noticed the
// same sever, and that second loss is (correctly) a peer-indicting error.
func churnRetry(c *Config) {
	c.Retry = resilience.Retry{MaxAttempts: 4, BackoffBase: 200 * time.Microsecond, BackoffCap: time.Millisecond}
}

// severAndRedial severs every session from→to — the caller guarantees
// the whole pool is established — and returns once traffic has redialled
// all of it. Churn paced this way lands on in-flight frames and never on
// a dial's handshake: a failed dial rightly indicts the peer
// (TestUpgradeRefusedIndicts), which is not what these tests watch.
func severAndRedial(t testing.TB, from, to *replica) {
	t.Helper()
	want := transportOf(t, from).V2Dials + DefaultPeerConns
	to.node.CloseV2Conns()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		dials, live := transportOf(t, from).V2Dials, liveConns(t, from, to)
		if dials >= want && live == DefaultPeerConns {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool %s→%s not redialled: %d dials (want %d), %d live", from.id, to.id, dials, want, live)
		}
	}
}

// TestUpgradeRefusedIndicts: whatever a peer's listener answers the
// session Upgrade with instead of 101 — 503 from a down replica, 404
// from a foreign binary, a 200 that ignored the Upgrade — the dial
// fails, the peer is indicted, and the caller is served locally without
// an error. There is no other transport to try.
func TestUpgradeRefusedIndicts(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusNotFound, http.StatusOK} {
		t.Run(http.StatusText(status), func(t *testing.T) {
			reps := newCluster(t, 2)
			a, b := reps[0], reps[1]
			b.upgradeStatus.Store(int64(status))
			if _, err := a.db.Search(context.Background(), predOwnedBy(t, reps, b.id)); err != nil {
				t.Fatalf("search failed on a refused upgrade: %v", err)
			}
			if st := a.node.Stats(); st.Fallbacks != 1 || st.Transport.V2DialFails != 1 {
				t.Fatalf("want 1 fallback-local serve and 1 failed dial: %+v transport %+v", st, st.Transport)
			}
			if a.node.health.alive(b.id) {
				t.Fatal("refused upgrade did not indict the peer")
			}
		})
	}
}

// TestPeerRestartRenegotiates: a full peer death (listener down + conns
// severed) degrades cleanly under concurrent load, and after the revive
// probe the transport dials again at once rather than staying parked on
// the backoff it armed while the peer was a 503.
func TestPeerRestartRenegotiates(t *testing.T) {
	reps := newCluster(t, 2)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	all := predsOwnedBy(t, reps, b.id, 6)
	// The last two predicates are reserved for the deterministic final
	// sequence: they must not be cached at a as outage fallout, or those
	// searches would be served locally and never touch the transport.
	preds, indict, probe := all[:4], all[4], all[5]
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g+i)%len(preds)]); err != nil {
					t.Errorf("search failed during restart: %v", err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		b.kill()
		time.Sleep(2 * time.Millisecond)
		b.down.Store(false)
		a.node.CheckNow(ctx)
	}
	close(stop)
	wg.Wait()
	// Let the re-homing passes those revives launched finish: one still
	// pushing when b dies below would indict b again after the final
	// revive, on evidence from before it.
	a.node.Quiesce()

	// Deterministic final pass on fresh predicates (anything from preds
	// is a's local stray by now and would never touch the transport):
	// kill → a forward passively indicts b (served locally, so it cannot
	// fail) → revive probe fires the hook that clears the dial backoff →
	// the next forward redials instead of staying parked on it.
	b.kill()
	if _, err := a.db.Search(ctx, indict); err != nil {
		t.Fatalf("search during outage: %v", err)
	}
	if a.node.health.alive(b.id) {
		t.Fatal("outage forward did not indict b")
	}
	b.down.Store(false)
	a.node.CheckNow(ctx)
	// The first search misses at b and pushes the answer there; the
	// second must come back as a forward hit over a live pooled conn.
	hits := a.node.Stats().ForwardHits
	for i := 0; i < 2; i++ {
		if _, err := a.db.Search(ctx, probe); err != nil {
			t.Fatal(err)
		}
		a.node.Quiesce()
	}
	if got := a.node.Stats().ForwardHits; got != hits+1 {
		t.Fatalf("after revive %d forward hits, want %d: %+v", got, hits+1, a.node.Stats())
	}
	if liveConns(t, a, b) == 0 {
		t.Fatalf("after revive no live pooled conn to %s", b.id)
	}
}

// TestBatchCoalescing: concurrent forwards to one owner leave in shared
// opBatchGet frames instead of a frame per lookup, and every caller
// still gets its own correct answer.
func TestBatchCoalescing(t *testing.T) {
	reps := newCluster(t, 2, func(c *Config) {
		c.BatchWindow = 3 * time.Millisecond // force wide batches: determinism over latency
	})
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 16)
	want := make([]int, len(preds))
	for i, p := range preds {
		res, err := a.db.Search(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Tuples)
	}
	a.node.Quiesce()
	warmQueries := totalQueries(reps)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, p := range preds {
		wg.Add(1)
		go func(i int, p relation.Predicate) {
			defer wg.Done()
			<-start
			res, err := a.db.Search(ctx, p)
			if err != nil {
				t.Errorf("batched search %d: %v", i, err)
				return
			}
			if len(res.Tuples) != want[i] {
				t.Errorf("batched search %d: %d tuples, want %d", i, len(res.Tuples), want[i])
			}
		}(i, p)
	}
	close(start)
	wg.Wait()

	if got := totalQueries(reps); got != warmQueries {
		t.Fatalf("batched hits paid %d web queries", got-warmQueries)
	}
	st := transportOf(t, a)
	if st.BatchesSent == 0 || st.BatchedGets < 2 {
		t.Fatalf("no coalescing: %+v", st)
	}
	var flushes int64
	for _, c := range st.BatchOccupancy {
		flushes += c
	}
	if flushes == 0 {
		t.Fatalf("occupancy histogram empty: %+v", st)
	}
}

// TestBatchCoalescingRace hammers the batcher from many goroutines while
// the owner's conns are concurrently severed — the coalescer must neither
// deadlock, nor double-deliver, nor drop a caller (run under -race).
func TestBatchCoalescingRace(t *testing.T) {
	reps := newCluster(t, 2, churnRetry, func(c *Config) {
		c.BatchWindow = 200 * time.Microsecond
	})
	ctx := context.Background()
	a, b := reps[0], reps[1]
	preds := predsOwnedBy(t, reps, b.id, 8)
	for _, p := range preds {
		if _, err := a.db.Search(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	a.node.Quiesce()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.db.Search(ctx, preds[(g*3+i)%len(preds)]); err != nil {
					t.Errorf("caller dropped under churn: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 15; i++ {
		severAndRedial(t, a, b)
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if st := a.node.Stats(); st.Fallbacks != 0 {
		t.Fatalf("transport churn caused fallback-local serves: %+v", st)
	}
}
