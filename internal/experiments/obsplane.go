package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/wdbhttp"
)

// s11Rig is the scenario's three-replica cluster. Replica c reaches its
// web database over real HTTP through a fault injector so a degraded
// burst can be induced on one replica only.
type s11Rig struct {
	ids  []string
	reps map[string]*service.Server
	urls map[string]string
	inj  *faultinject.Injector
}

// s11ShortWindow is the SLO burn window that isolates the induced
// burst; the hour-long window alongside it sees the burst diluted by
// the clean bulk, like any single replica's cumulative counters do.
const s11ShortWindow = 700 * time.Millisecond

// ScenarioObservabilityPlane (S11) demonstrates the cluster-wide
// observability plane on a three-replica ring:
//
//   - A query forwarded through the ring appears on the caller's
//     /api/trace as ONE stitched tree: the remote replica's spans come
//     back in the response and are grafted under the caller's
//     peer_forward span, attributed to the replica that ran them.
//   - The qr2_fleet_* families on any replica's /metrics equal an
//     offline merge of the three per-replica /cluster/obs snapshots —
//     bucket-for-bucket, because every replica buckets identically.
//   - A degraded-serve burst on one replica drives the short-window
//     qr2_slo_* burn rate above 1 while the cumulative counters any
//     single page shows stay under the objective — the burst is only
//     visible through windowed fleet accounting.
func (r *Runner) ScenarioObservabilityPlane(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "S11",
		Title: "cluster observability plane: stitched traces, fleet roll-up, SLO burn rates",
		PaperClaim: "the paper's query-cost metric is only meaningful fleet-wide: a third-party service must " +
			"account queries, latency and degradation across every replica a request touched, not per process",
		Header: []string{"phase", "observation", "value"},
	}
	rig, cleanup, err := r.s11Cluster(ctx)
	if err != nil {
		return Table{}, err
	}
	defer cleanup()

	// Phase 1 — stitched distributed trace. Warm a predicate through
	// replica b (the answer is admitted at its owner), then replay it on
	// replica a. When a does not own the key it forwards through the
	// ring and the owner's spans come back stitched into a's trace.
	var stitched *s11Trace
	var stitchedForm int
	for i := 0; i < 12 && stitched == nil; i++ {
		form := url.Values{
			"source": {"zillow"}, "rank": {"price"}, "k": {"3"},
			"min.price": {strconv.Itoa(150000 + 7000*i)},
		}
		if _, err := s11Query(rig.urls["b"], form); err != nil {
			return Table{}, err
		}
		rig.reps["b"].Cluster().Quiesce()
		doc, err := s11Query(rig.urls["a"], form)
		if err != nil {
			return Table{}, err
		}
		tr, err := s11FetchTrace(rig.urls["a"], doc.Trace)
		if err != nil {
			return Table{}, err
		}
		for _, sp := range tr.Spans {
			if sp.Replica != "" {
				stitched, stitchedForm = tr, i
				break
			}
		}
	}
	if stitched == nil {
		return Table{}, fmt.Errorf("experiments: no forwarded query produced a stitched trace in 12 attempts")
	}
	var remoteReplica string
	var remoteSpans int
	remoteHit := false
	local := map[string]bool{}
	for _, sp := range stitched.Spans {
		if sp.Replica == "" {
			local[sp.Stage] = true
			continue
		}
		remoteSpans++
		remoteReplica = sp.Replica
		if sp.Depth == 0 {
			return Table{}, fmt.Errorf("experiments: remote span %s at depth 0 — not nested under the forward", sp.Stage)
		}
		if sp.Stage == "pool_lookup" && sp.Outcome == "hit" {
			remoteHit = true
		}
	}
	if !local["ring_route"] || !local["peer_forward"] {
		return Table{}, fmt.Errorf("experiments: stitched trace lacks local ring_route/peer_forward spans: %+v", stitched.Spans)
	}
	if remoteReplica == "a" {
		return Table{}, fmt.Errorf("experiments: remote spans attributed to the caller itself")
	}
	if !remoteHit {
		return Table{}, fmt.Errorf("experiments: owner's pool_lookup hit span missing from the stitched trace")
	}
	t.AddRow("stitched trace", "forwarded query, one tree on the caller",
		f("form %d: %d remote span(s) @%s under peer_forward", stitchedForm, remoteSpans, remoteReplica))

	// Phase 2 — fleet roll-up. Drive a mixed workload through all three
	// replicas, poll the fleet from a, then independently fetch the
	// three /cluster/obs snapshots and merge them offline. a's
	// qr2_fleet_* families must match the offline merge exactly.
	for _, id := range rig.ids {
		for i := 0; i < 3; i++ {
			form := url.Values{
				"source": {"zillow"}, "rank": {"-sqft"}, "k": {"3"},
				"min.sqft": {strconv.Itoa(500 + 100*i)},
			}
			if _, err := s11Query(rig.urls[id], form); err != nil {
				return Table{}, err
			}
			// Replay from a fresh session: lands on the answer pool.
			if _, err := s11Query(rig.urls[id], form); err != nil {
				return Table{}, err
			}
		}
	}
	for _, id := range rig.ids {
		rig.reps[id].Cluster().Quiesce()
	}
	rig.reps["a"].Cluster().PollObs(ctx)
	snaps := make([]*obs.Snapshot, 0, len(rig.ids))
	for _, id := range rig.ids {
		s, err := s11Snapshot(rig.urls[id])
		if err != nil {
			return Table{}, err
		}
		snaps = append(snaps, s)
	}
	offline := obs.MergeSnapshots(snaps...)
	m, err := s11Metrics(rig.urls["a"])
	if err != nil {
		return Table{}, err
	}
	if got := m["qr2_fleet_traces_total"]; got != f("%d", offline.Traces) {
		return Table{}, fmt.Errorf("experiments: qr2_fleet_traces_total %s != offline merge %d", got, offline.Traces)
	}
	paths := 0
	for path, h := range offline.Request {
		paths++
		var expect strings.Builder
		h.WriteProm(&expect, "qr2_fleet_request_latency_seconds", fmt.Sprintf("path=%q", path))
		for _, line := range strings.Split(strings.TrimSpace(expect.String()), "\n") {
			key, val, _ := strings.Cut(line, " ")
			if m[key] != val {
				return Table{}, fmt.Errorf("experiments: fleet metrics disagree with offline merge: %s = %q, want %q", key, m[key], val)
			}
		}
	}
	t.AddRow("fleet roll-up", "qr2_fleet_request_latency_seconds vs offline merge of 3 snapshots",
		f("%d path(s), every bucket/sum/count row equal; %d traces fleet-wide", paths, offline.Traces))

	// Phase 3 — SLO burn-rate accounting. Bulk clean traffic, then a
	// short degraded burst on replica c alone. The short window isolates
	// the burst (burn > 1, a breach is counted); the hour window and
	// every replica's own cumulative counters stay under the objective.
	cleanForm := url.Values{"source": {"zillow"}, "rank": {"price"}, "k": {"3"}, "max.price": {"800000"}}
	for i := 0; i < 60; i++ {
		for _, id := range rig.ids {
			if _, err := s11Query(rig.urls[id], cleanForm); err != nil {
				return Table{}, err
			}
		}
	}
	// Age the earlier samples (which bracket the clean bulk) out of the
	// short window, so its delta spans only pre-burst → post-burst.
	time.Sleep(s11ShortWindow + 50*time.Millisecond)
	rig.reps["a"].Cluster().PollObs(ctx) // pre-burst sample
	rig.inj.SetSchedule(true, faultinject.Step{Mode: faultinject.Reset})
	degradedSeen := 0
	for i := 0; i < 2; i++ {
		form := url.Values{
			"source": {"zillow"}, "rank": {"price"}, "k": {"3"},
			"min.year": {strconv.Itoa(1990 + i)},
		}
		doc, err := s11Query(rig.urls["c"], form)
		if err != nil {
			return Table{}, err
		}
		if doc.Degraded {
			degradedSeen++
		}
	}
	rig.inj.SetSchedule(false)
	if degradedSeen == 0 {
		return Table{}, fmt.Errorf("experiments: burst produced no degraded answers")
	}
	rig.reps["a"].Cluster().PollObs(ctx) // post-burst sample, within the short window
	m, err = s11Metrics(rig.urls["a"])
	if err != nil {
		return Table{}, err
	}
	short, long := s11ShortWindow.String(), time.Hour.String()
	shortBreaches := m[f(`qr2_slo_breaches_total{slo="degraded_fraction",window=%q}`, short)]
	longBreaches := m[f(`qr2_slo_breaches_total{slo="degraded_fraction",window=%q}`, long)]
	if shortBreaches == "" || shortBreaches == "0" {
		return Table{}, fmt.Errorf("experiments: degraded burst did not breach the %s window (breaches=%q)", short, shortBreaches)
	}
	if longBreaches != "0" {
		return Table{}, fmt.Errorf("experiments: the %s window breached (%s) — the burst should be diluted there", long, longBreaches)
	}
	// The per-replica pages alone would not show it: every replica's
	// cumulative degraded fraction stays under the objective.
	maxFrac := 0.0
	for _, id := range rig.ids {
		s, err := s11Snapshot(rig.urls[id])
		if err != nil {
			return Table{}, err
		}
		if s.Traces == 0 {
			continue
		}
		frac := float64(s.RequestCount("degraded")) / float64(s.Traces)
		if frac > maxFrac {
			maxFrac = frac
		}
	}
	if maxFrac >= 0.05 {
		return Table{}, fmt.Errorf("experiments: cumulative degraded fraction %.3f already exceeds the objective — windowing proves nothing", maxFrac)
	}
	t.AddRow("slo burn rate", f("degraded burst on c; %s window breaches / %s window breaches", short, long),
		f("%s / %s (max per-replica cumulative fraction %.3f, objective 0.05)", shortBreaches, longBreaches, maxFrac))

	t.Notes = append(t.Notes,
		"stitched trace: the owner's spans return in the opGetResp frame's wire subtree and nest under the caller's peer_forward span, replica-attributed",
		"fleet roll-up: replicas poll each other's /cluster/obs each gossip tick; identical power-of-two buckets make the merge exact, so fleet percentiles equal an offline merge",
		f("slo windows: %s and %s over the same merged counters — only the short window isolates the burst a single replica's cumulative page dilutes away", short, long),
	)
	return t, nil
}

// s11Cluster builds the three-replica rig: a and b serve their own
// local simulators, c reaches its simulator over HTTP through the
// fault injector.
func (r *Runner) s11Cluster(ctx context.Context) (*s11Rig, func(), error) {
	ids := []string{"a", "b", "c"}
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	handlers := map[string]*s11LateHandler{}
	urls := map[string]string{}
	for _, id := range ids {
		lh := &s11LateHandler{}
		ts := httptest.NewServer(lh)
		closers = append(closers, ts.Close)
		handlers[id] = lh
		urls[id] = ts.URL
	}
	inj := faultinject.New()
	pol := resilience.Policy{
		AttemptTimeout:   40 * time.Millisecond,
		MaxAttempts:      2,
		BackoffBase:      time.Millisecond,
		BackoffCap:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerOpenFor:   150 * time.Millisecond,
		BreakerProbes:    2,
		DegradedServe:    true,
	}
	reps := map[string]*service.Server{}
	for _, id := range ids {
		db, err := r.localDB("zillow")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		var src service.SourceConfig
		if id == "c" {
			wdb := httptest.NewServer(inj.Middleware(wdbhttp.NewServer(db)))
			closers = append(closers, wdb.Close)
			dialCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			client, err := wdbhttp.Dial(dialCtx, wdb.URL, nil)
			cancel()
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			src = service.SourceConfig{DB: client, Cache: &qcache.Config{}}
		} else {
			src = service.SourceConfig{DB: db, Cache: &qcache.Config{}}
		}
		srv, err := service.New(service.Config{
			Sources:    map[string]service.SourceConfig{"zillow": src},
			Algorithm:  core.Rerank,
			SelfID:     id,
			Peers:      urls,
			Resilience: pol,
			SLO: obs.SLOObjectives{
				Windows: []time.Duration{s11ShortWindow, time.Hour},
			},
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		handlers[id].set(srv)
		reps[id] = srv
	}
	return &s11Rig{ids: ids, reps: reps, urls: urls, inj: inj}, cleanup, nil
}

// s11LateHandler lets a listener start before the replica it serves is
// built — peer URLs must exist before service.New can be called.
type s11LateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *s11LateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *s11LateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// s11Answer is the slice of /api/query the scenario inspects.
type s11Answer struct {
	Trace    string `json:"trace"`
	Degraded bool   `json:"degraded"`
}

// s11Query posts one query from a fresh session, so cache behaviour
// depends only on the shared pool and the ring.
func s11Query(base string, form url.Values) (s11Answer, error) {
	var doc s11Answer
	jar, err := cookiejar.New(nil)
	if err != nil {
		return doc, err
	}
	client := &http.Client{Jar: jar}
	resp, err := client.PostForm(base+"/api/query", form)
	if err != nil {
		return doc, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return doc, err
	}
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("experiments: /api/query returned %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, err
	}
	return doc, nil
}

// s11Trace is the slice of /api/trace the scenario inspects.
type s11Trace struct {
	ID    string `json:"id"`
	Path  string `json:"path"`
	Spans []struct {
		Stage   string `json:"stage"`
		Outcome string `json:"outcome"`
		Replica string `json:"replica"`
		Depth   uint8  `json:"depth"`
	} `json:"spans"`
}

func s11FetchTrace(base, id string) (*s11Trace, error) {
	resp, err := http.Get(base + "/api/trace?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	// Drained, not just closed: the early status return below would
	// otherwise leave the body unread and burn the pooled connection.
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("experiments: /api/trace returned %d", resp.StatusCode)
	}
	var list struct {
		Traces []*s11Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	if len(list.Traces) != 1 {
		return nil, fmt.Errorf("experiments: trace %q: got %d documents", id, len(list.Traces))
	}
	return list.Traces[0], nil
}

// s11Snapshot fetches one replica's mergeable /cluster/obs snapshot.
func s11Snapshot(base string) (*obs.Snapshot, error) {
	resp, err := http.Get(base + "/cluster/obs")
	if err != nil {
		return nil, err
	}
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("experiments: /cluster/obs returned %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// s11Metrics indexes every /metrics sample line, stripping OpenMetrics
// exemplar suffixes so values parse clean.
func s11Metrics(base string) (map[string]string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sample, _, ok := strings.Cut(line, " # "); ok {
			line = sample
		}
		if key, val, ok := strings.Cut(line, " "); ok {
			out[key] = val
		}
	}
	return out, nil
}
