package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/wdbhttp"
	"repro/internal/workload"
)

// s12Replica is one service replica of the wire-speed scenario: the
// full QR2 service (so the trace driver exercises the real /api
// surface) behind a listener that can be killed mid-burst.
type s12Replica struct {
	id   string
	srv  *service.Server
	url  string
	down atomic.Bool
}

// ScenarioWireSpeed (S12) runs the peer protocol at wire speed on a
// three-replica ring:
//
//  1. Entry-replica independence. The same hot query set served through
//     each of the three replicas returns byte-identical rows, whichever
//     replica owned the answers and however many forwards carried them.
//  2. A hot multi-user trace replayed closed-loop across all three
//     replicas completes without a single failed request, with forwards
//     coalescing into batch frames.
//  3. Killing a replica mid-burst fails zero callers: in-flight frames
//     to it are replayed once, the refused redial indicts the peer, and
//     the survivors degrade to local serving — every user request still
//     answers.
func (r *Runner) ScenarioWireSpeed(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "S12",
		Title: "wire-speed peer protocol: three-replica ring under a hot multi-user trace, mid-burst peer kill",
		PaperClaim: "the reranking service's economics need cheap cross-replica answer sharing; the ring " +
			"must be invisible to correctness — any entry replica, peer death included",
		Header: []string{"phase", "requests", "errors", "frames", "batched gets", "degraded serves", "note"},
	}

	reps, cleanup, err := r.s12Cluster(ctx)
	if err != nil {
		return Table{}, err
	}
	defer cleanup()
	byID := map[string]*s12Replica{}
	var targets []string
	for _, rep := range reps {
		byID[rep.id] = rep
		targets = append(targets, rep.url)
	}

	forms := []url.Values{
		{"source": {"zillow"}, "rank": {"price"}, "k": {"5"}, "min.beds": {"3"}},
		{"source": {"zillow"}, "rank": {"-sqft"}, "k": {"5"}, "max.price": {"900000"}},
		{"source": {"zillow"}, "rank": {"year"}, "k": {"5"}, "min.baths": {"2"}},
		{"source": {"zillow"}, "rank": {"-price"}, "k": {"5"}, "min.sqft": {"1500"}},
		{"source": {"zillow"}, "rank": {"price"}, "k": {"5"}, "max.year": {"2000"}},
		{"source": {"zillow"}, "rank": {"sqft"}, "k": {"5"}, "min.price": {"250000"}},
	}

	// Phase 1: serve every form once on each replica and compare the
	// rows byte-for-byte across the three — which replica took the
	// request must be indistinguishable in the answer.
	frames0, gets0, deg0 := s12Transport(reps)
	var served, mismatches int
	for _, form := range forms {
		var want string
		for i, rep := range reps {
			rows, err := s12Rows(rep.url, form)
			if err != nil {
				return Table{}, fmt.Errorf("experiments: S12 warm query on %s: %w", rep.id, err)
			}
			served++
			if i == 0 {
				want = rows
			} else if rows != want {
				mismatches++
			}
		}
		for _, rep := range reps {
			rep.srv.Cluster().Quiesce()
		}
	}
	frames1, gets1, deg1 := s12Transport(reps)
	t.AddRow("every form on every replica",
		f("%d", served), f("%d", mismatches), f("%d", frames1-frames0), f("%d", gets1-gets0), f("%d", deg1-deg0),
		"rows byte-identical from every entry replica")
	if mismatches > 0 {
		return Table{}, fmt.Errorf("experiments: S12: %d answer mismatches across entry replicas", mismatches)
	}

	// Phase 2: the hot multi-user trace, closed-loop across all three
	// replicas. Everything is resident now, so this is the wire-speed
	// regime the transport was built for.
	traces := workload.SynthTraces(18, 6, r.cfg.Seed, forms)
	res, err := workload.Replay(workload.ReplayConfig{
		Targets: targets, Traces: traces,
		Concurrency: 6,
	})
	if err != nil {
		return Table{}, err
	}
	for _, rep := range reps {
		rep.srv.Cluster().Quiesce()
	}
	frames2, gets2, deg2 := s12Transport(reps)
	t.AddRow("hot multi-user trace, closed-loop, 3 replicas",
		f("%d", res.Requests), f("%d", res.Errors), f("%d", frames2-frames1), f("%d", gets2-gets1), f("%d", deg2-deg1),
		f("%d users × %d steps", 18, 6))
	if res.Errors > 0 {
		return Table{}, fmt.Errorf("experiments: S12: hot trace lost %d requests", res.Errors)
	}

	// Phase 3: kill replica b once the burst is provably in flight
	// (a quarter of the query responses observed), with user traffic
	// pinned to a and c. In-flight forwards to b descend the ladder —
	// replay, refused redial, peer indicted, local degrade — and no
	// caller sees it.
	killAt := int64(len(traces) * 6 / 4) // 25% of expected query count
	var seen atomic.Int64
	killOnce := sync.Once{}
	killed := make(chan struct{})
	go func() {
		<-killed
		byID["b"].down.Store(true)
		byID["b"].srv.Cluster().CloseV2Conns() // a crash severs hijacked conns too
	}()
	res, err = workload.Replay(workload.ReplayConfig{
		Targets:     []string{byID["a"].url, byID["c"].url},
		Traces:      workload.SynthTraces(18, 6, r.cfg.Seed+1, forms),
		Concurrency: 6,
		Observe: func(trace, step, status int, body []byte) {
			if seen.Add(1) == killAt {
				killOnce.Do(func() { close(killed) })
			}
		},
	})
	if err != nil {
		return Table{}, err
	}
	killOnce.Do(func() { close(killed) }) // tiny bursts: kill at the end
	for _, id := range []string{"a", "c"} {
		byID[id].srv.Cluster().Quiesce()
	}
	frames3, gets3, deg3 := s12Transport(reps)
	t.AddRow("replica b killed mid-burst (traffic on a, c)",
		f("%d", res.Requests), f("%d", res.Errors), f("%d", frames3-frames2), f("%d", gets3-gets2), f("%d", deg3-deg2),
		"zero dropped callers")
	if res.Errors > 0 {
		return Table{}, fmt.Errorf("experiments: S12: mid-burst kill lost %d requests", res.Errors)
	}
	if deg3 == deg2 {
		return Table{}, fmt.Errorf("experiments: S12: peer kill engaged no degraded serving — the kill was a no-op")
	}

	t.Notes = append(t.Notes,
		"'frames' counts both roles across all replicas; 'batched gets' are forwarded lookups that travelled coalesced into opBatchGet frames; 'degraded serves' are forwards whose owner could not answer, served from the caller's local pool",
		"the kill fires only after a quarter of the burst's queries have answered, so forwards to b are provably in flight when its listener dies and its v2 connections sever — survivors indict b and degrade to local serving, and no caller sees an error",
	)
	return t, nil
}

// s12Cluster builds the three-replica ring.
func (r *Runner) s12Cluster(ctx context.Context) ([]*s12Replica, func(), error) {
	ids := []string{"a", "b", "c"}
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	reps := make([]*s12Replica, 0, len(ids))
	handlers := map[string]*s11LateHandler{}
	urls := map[string]string{}
	for _, id := range ids {
		rep := &s12Replica{id: id}
		lh := &s11LateHandler{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if rep.down.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			lh.ServeHTTP(w, req)
		}))
		closers = append(closers, ts.Close)
		rep.url = ts.URL
		handlers[id] = lh
		urls[id] = ts.URL
		reps = append(reps, rep)
	}
	for _, rep := range reps {
		db, err := r.localDB("zillow")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv, err := service.New(service.Config{
			Sources:   map[string]service.SourceConfig{"zillow": {DB: db, Cache: &qcache.Config{}}},
			Algorithm: core.Rerank,
			SelfID:    rep.id,
			Peers:     urls,
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		handlers[rep.id].set(srv)
		rep.srv = srv
	}
	return reps, cleanup, nil
}

// s12Rows fetches one query's rows as their raw JSON — the
// byte-identity unit (session and qid naturally differ per request, the
// answer must not).
func s12Rows(base string, form url.Values) (string, error) {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return "", err
	}
	client := &http.Client{Jar: jar}
	resp, err := client.PostForm(base+"/api/query", form)
	if err != nil {
		return "", err
	}
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/api/query: %s", resp.Status)
	}
	var doc struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	return string(doc.Rows), nil
}

// s12Transport sums the ring-wide transport and degrade counters.
// degrades is the node-level fallback count: forwards whose owner could
// not answer, served from the caller's local pool instead.
func s12Transport(reps []*s12Replica) (frames, batchedGets, degrades int64) {
	for _, rep := range reps {
		st := rep.srv.Cluster().Stats()
		degrades += st.Fallbacks
		frames += st.Transport.FramesSent + st.Transport.FramesRecv
		batchedGets += st.Transport.BatchedGets
	}
	return
}
