package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/qcache"
)

// pooledService builds a two-source service in shared-pool mode.
func pooledService(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	bn := datagen.BlueNile(800, 1)
	zl := datagen.Zillow(800, 2)
	bndb, err := hidden.NewLocal("bluenile", bn.Rel, 30, bn.Rank)
	if err != nil {
		t.Fatal(err)
	}
	zldb, err := hidden.NewLocal("zillow", zl.Rel, 30, zl.Rank)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Sources: map[string]SourceConfig{
			"bluenile": {DB: bndb, Cache: &qcache.Config{}},
			"zillow":   {DB: zldb, Cache: &qcache.Config{}},
		},
		Algorithm:       core.Rerank,
		SharedCachePool: true,
		CachePoolBytes:  32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestStatsReportPoolAndMem: in shared-pool mode /api/stats carries the
// pool's global residency and per-namespace counters.
func TestStatsReportPoolAndMem(t *testing.T) {
	ts, srv := pooledService(t)
	if srv.pool == nil {
		t.Fatal("SharedCachePool did not enable the pool")
	}
	client := &http.Client{Jar: &cookieJar{cookies: map[string][]*http.Cookie{}}}
	form := url.Values{"source": {"bluenile"}, "rank": {"price"}, "k": {"3"}}
	if resp, body := postForm(t, client, ts.URL+"/api/query", form); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, err := client.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc serviceStatsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stats decode: %v\n%s", err, body)
	}
	if doc.Pool == nil {
		t.Fatalf("pool section missing:\n%s", body)
	}
	if len(doc.Pool.Namespaces) != 2 {
		t.Fatalf("pool namespaces = %d, want 2", len(doc.Pool.Namespaces))
	}
	bn := doc.Pool.Namespaces["bluenile"]
	if bn.Misses == 0 {
		t.Fatalf("bluenile namespace saw no traffic: %+v", bn)
	}
	if doc.Pool.Bytes == 0 || doc.Pool.Limit != 32<<20 {
		t.Fatalf("pool residency not reported: %+v", doc.Pool)
	}
}

// TestMetricsEscapesNonASCIISourceName: the Prometheus exposition format
// takes label bytes verbatim except \, " and newline; Go's %q-style
// \uXXXX escapes are invalid and must not appear.
func TestMetricsEscapesNonASCIISourceName(t *testing.T) {
	name := `café "münchen"\`
	cat := datagen.BlueNile(400, 1)
	db, err := hidden.NewLocal(name, cat.Rel, 20, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Sources:   map[string]SourceConfig{name: {DB: db, Cache: &qcache.Config{}}},
		Algorithm: core.Rerank,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	want := `qr2_qcache_misses_total{source="café \"münchen\"\\"}`
	if !strings.Contains(text, want) {
		t.Fatalf("metrics missing correctly escaped label %q:\n%s", want, text)
	}
	if strings.Contains(text, `\u`) {
		t.Fatalf("metrics contain %%q-style unicode escapes:\n%s", text)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		"caf\u00e9":     "café",
		`back\slash`:    `back\\slash`,
		`quo"te`:        `quo\"te`,
		"new\nline":     `new\nline`,
		`all"三\` + "\n": `all\"三\\\n`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Fatalf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
