package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/qcache"
)

// lateHandler lets a listener start before the server it will serve is
// built — peer URLs must exist before service.New can be called.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterServices builds two service replicas over the same catalog,
// joined in a ring, each counting its own web-database queries.
func clusterServices(t *testing.T) (reps map[string]*Server, urls map[string]string, dbs map[string]*hidden.Local) {
	t.Helper()
	cat := datagen.Zillow(1500, 3)
	handlers := map[string]*lateHandler{}
	urls = map[string]string{}
	for _, id := range []string{"a", "b"} {
		lh := &lateHandler{}
		ts := httptest.NewServer(lh)
		t.Cleanup(ts.Close)
		handlers[id] = lh
		urls[id] = ts.URL
	}
	reps = map[string]*Server{}
	dbs = map[string]*hidden.Local{}
	for _, id := range []string{"a", "b"} {
		db, err := hidden.NewLocal("zillow", cat.Rel, 30, cat.Rank)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Sources: map[string]SourceConfig{
				"zillow": {DB: db, Cache: &qcache.Config{}},
			},
			Algorithm: core.Rerank,
			SelfID:    id,
			Peers:     urls,
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[id].set(srv)
		reps[id] = srv
		dbs[id] = db
	}
	return reps, urls, dbs
}

// TestClusterServiceSharesAnswers: the same user query served by two
// replicas pays the web-database cost once — the second replica resolves
// every predicate through the ring.
func TestClusterServiceSharesAnswers(t *testing.T) {
	reps, urls, dbs := clusterServices(t)
	form := url.Values{
		"source":    {"zillow"},
		"rank":      {"price"},
		"min.price": {"200000"},
		"max.price": {"400000"},
		"k":         {"5"},
	}
	clientA := &http.Client{Jar: &cookieJar{cookies: map[string][]*http.Cookie{}}}
	if resp, body := postForm(t, clientA, urls["a"]+"/api/query", form); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on a: %d %s", resp.StatusCode, body)
	}
	reps["a"].Cluster().Quiesce()
	first := dbs["a"].QueryCount() + dbs["b"].QueryCount()
	if first == 0 {
		t.Fatal("first query cost nothing — test vacuous")
	}

	clientB := &http.Client{Jar: &cookieJar{cookies: map[string][]*http.Cookie{}}}
	if resp, body := postForm(t, clientB, urls["b"]+"/api/query", form); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on b: %d %s", resp.StatusCode, body)
	}
	reps["b"].Cluster().Quiesce()
	second := dbs["a"].QueryCount() + dbs["b"].QueryCount() - first
	if second != 0 {
		t.Fatalf("replica b paid %d web queries for a workload replica a already answered (first run: %d)", second, first)
	}
	// Both replicas participated: b either served owned keys locally or
	// forwarded to a.
	bs := reps["b"].Cluster().Stats()
	if bs.OwnedLocal+bs.Forwards+bs.LocalHits == 0 {
		t.Fatalf("replica b's ring saw no traffic: %+v", bs)
	}
}

// TestClusterStatsAndMetrics: cluster mode surfaces ring membership and
// counters on /api/stats and /metrics.
func TestClusterStatsAndMetrics(t *testing.T) {
	reps, urls, _ := clusterServices(t)
	_ = reps
	resp, err := http.Get(urls["a"] + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc serviceStatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Cluster == nil {
		t.Fatal("/api/stats has no cluster section")
	}
	if doc.Cluster.Self != "a" || len(doc.Cluster.Peers) != 2 {
		t.Fatalf("cluster section malformed: %+v", doc.Cluster)
	}
	for _, p := range doc.Cluster.Peers {
		if !p.Alive {
			t.Fatalf("healthy peer reported dead: %+v", p)
		}
	}

	resp, err = http.Get(urls["a"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`qr2_cluster_peer_alive{peer="a"} 1`,
		`qr2_cluster_peer_alive{peer="b"} 1`,
		`qr2_cluster_forwards_total{self="a"}`,
		`qr2_cluster_fallbacks_total{self="a"}`,
		`qr2_peer_frames_sent_total{self="a"}`,
		`qr2_peer_batches_sent_total{self="a"}`,
		`qr2_peer_batch_occupancy_bucket{self="a",le="+Inf"}`,
		`qr2_peer_batch_occupancy_count{self="a"}`,
		`qr2_peer_conns{self="a",peer="b"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// The peer protocol itself is mounted on the service mux.
	resp, err = http.Get(urls["a"] + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/ring: %d", resp.StatusCode)
	}
	var ring struct {
		Self  string `json:"self"`
		Peers []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if ring.Self != "a" || len(ring.Peers) != 2 {
		t.Fatalf("/cluster/ring malformed: %+v", ring)
	}

	// The data plane has exactly one wire form — frames behind the
	// Upgrade — so the JSON-over-HTTP endpoints it used to have are gone,
	// while the control plane stays plain GET.
	for _, probe := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/cluster/get", http.StatusNotFound},
		{http.MethodPost, "/cluster/put", http.StatusNotFound},
		{http.MethodGet, "/cluster/obs", http.StatusOK},
		{http.MethodGet, "/healthz", http.StatusOK},
	} {
		req, err := http.NewRequest(probe.method, urls["a"]+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("%s %s: %d, want %d", probe.method, probe.path, resp.StatusCode, probe.want)
		}
	}
}

// TestClusterRequiresCachedSources: ring mode without an answer cache is
// a configuration error, not a silent no-op.
func TestClusterRequiresCachedSources(t *testing.T) {
	cat := datagen.Zillow(300, 3)
	db, err := hidden.NewLocal("zillow", cat.Rel, 30, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Sources:   map[string]SourceConfig{"zillow": {DB: db}},
		Algorithm: core.Rerank,
		SelfID:    "a",
		Peers:     map[string]string{"a": ""},
	})
	if err == nil {
		t.Fatal("cluster mode without caches accepted")
	}
}
