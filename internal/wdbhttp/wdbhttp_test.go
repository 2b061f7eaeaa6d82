package wdbhttp

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/ranking"
	"repro/internal/relation"
)

func testPair(t *testing.T, n, k int, seed int64) (*hidden.Local, *Client, *datagen.Catalog) {
	t.Helper()
	cat := datagen.BlueNile(n, seed)
	db, err := hidden.NewLocal(cat.Name, cat.Rel, k, cat.Rank)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(db))
	t.Cleanup(srv.Close)
	client, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return db, client, cat
}

func TestDialSchemaRoundTrip(t *testing.T) {
	db, client, _ := testPair(t, 100, 10, 1)
	if client.Name() != db.Name() || client.SystemK() != db.SystemK() {
		t.Fatalf("metadata mismatch: %s/%d vs %s/%d", client.Name(), client.SystemK(), db.Name(), db.SystemK())
	}
	ls, rs := db.Schema(), client.Schema()
	if ls.Len() != rs.Len() {
		t.Fatalf("schema arity %d vs %d", rs.Len(), ls.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		a, b := ls.Attr(i), rs.Attr(i)
		if a.Name != b.Name || a.Kind != b.Kind || a.Min != b.Min || a.Max != b.Max ||
			a.Resolution != b.Resolution || len(a.Categories) != len(b.Categories) {
			t.Fatalf("attr %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// Property: the HTTP client and the local database give identical answers
// for random predicates, including open/closed bound distinctions.
func TestClientMatchesLocalProperty(t *testing.T) {
	db, client, cat := testPair(t, 800, 25, 2)
	schema := cat.Rel.Schema()
	r := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		pred := relation.Predicate{}
		for i := 0; i < schema.Len(); i++ {
			if r.Intn(3) != 0 {
				continue
			}
			a := schema.Attr(i)
			if a.Kind == relation.Numeric {
				lo := a.Min + r.Float64()*(a.Max-a.Min)
				hi := lo + r.Float64()*(a.Max-lo)
				iv := relation.Interval{Lo: lo, Hi: hi, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
				pred = pred.WithInterval(i, iv)
			} else {
				cats := []int{r.Intn(len(a.Categories)), r.Intn(len(a.Categories))}
				pred = pred.WithCategories(i, cats)
			}
		}
		want, err := db.Search(ctx, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Search(ctx, pred)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("trial %d: got %d/%v want %d/%v for %s",
				trial, len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow,
				pred.Describe(schema))
		}
		for i := range want.Tuples {
			if got.Tuples[i].ID != want.Tuples[i].ID {
				t.Fatalf("trial %d: rank %d: tuple %d vs %d", trial, i, got.Tuples[i].ID, want.Tuples[i].ID)
			}
		}
	}
	if client.QueryCount() != 60 {
		t.Fatalf("client QueryCount = %d", client.QueryCount())
	}
	client.ResetQueryCount()
	if client.QueryCount() != 0 {
		t.Fatal("ResetQueryCount failed")
	}
}

// The whole reranking stack must work unchanged over HTTP.
func TestRerankOverHTTP(t *testing.T) {
	_, client, cat := testPair(t, 600, 25, 4)
	r, err := core.New(client, core.Options{Algorithm: core.Rerank})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := r.Rerank(ctx, core.Query{Rank: ranking.MustParse("price - 0.2*carat")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.NextN(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceTop(cat.Rel, relation.Predicate{}, st.Scorer(), 5)
	if len(got) != 5 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := range got {
		gs, ws := st.Scorer().Score(got[i]), st.Scorer().Score(want[i])
		if gs != ws {
			t.Fatalf("position %d: score %v vs %v", i, gs, ws)
		}
	}
}

func TestFilterFormRoundTripProperty(t *testing.T) {
	_, _, cat := testPair(t, 10, 5, 5)
	schema := cat.Rel.Schema()
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		pred := relation.Predicate{}
		if r.Intn(2) == 0 {
			iv := relation.Interval{Lo: r.Float64() * 100, Hi: 100 + r.Float64()*100,
				LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
			pred = pred.WithInterval(0, iv)
		}
		if r.Intn(2) == 0 {
			pred = pred.WithCategories(5, []int{r.Intn(5), r.Intn(5)})
		}
		back, err := ParseFilterForm(schema, EncodeFilterForm(schema, pred))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Compare by behaviour on random tuples.
		for probe := 0; probe < 30; probe++ {
			tu := cat.Rel.Tuple(r.Intn(cat.Rel.Len()))
			if pred.Match(tu) != back.Match(tu) {
				t.Fatalf("trial %d: round-tripped predicate behaves differently on tuple %d", trial, tu.ID)
			}
		}
	}
}

func TestSearchBadRequests(t *testing.T) {
	db, _, _ := testPair(t, 50, 10, 7)
	srv := httptest.NewServer(NewServer(db))
	defer srv.Close()
	cases := []url.Values{
		{"min.nope": {"5"}},      // unknown attribute
		{"min.cut": {"5"}},       // numeric bound on categorical
		{"in.price": {"1"}},      // category filter on numeric
		{"min.price": {"cheap"}}, // unparsable number
		{"in.cut": {"99"}},       // out-of-range category code
		{"in.cut": {"x"}},        // unparsable category code
	}
	for i, form := range cases {
		resp, err := srv.Client().PostForm(srv.URL+"/search", form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func TestSearchViaGET(t *testing.T) {
	db, _, _ := testPair(t, 200, 10, 8)
	srv := httptest.NewServer(NewServer(db))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/search?min.price=1000&max.price=5000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET search status %d", resp.StatusCode)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(context.Background(), "http://127.0.0.1:1", &http.Client{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/schema") {
			_, _ = w.Write([]byte("not json"))
		}
	}))
	defer bad.Close()
	if _, err := Dial(context.Background(), bad.URL, bad.Client()); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

// A web database that boots after the service dials it must not be lost
// forever: WithRetry keeps trying through transport errors and 5xx.
func TestDialRetriesUntilSchemaAppears(t *testing.T) {
	db, _, _ := testPair(t, 20, 5, 11)
	inner := NewServer(db)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client, err := Dial(context.Background(), srv.URL, srv.Client(), WithRetry(5, time.Millisecond))
	if err != nil {
		t.Fatalf("dial with retries: %v", err)
	}
	if client.SystemK() != db.SystemK() {
		t.Fatalf("SystemK %d, want %d", client.SystemK(), db.SystemK())
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("schema endpoint hit %d times, want 3", got)
	}
}

// A 404 means the endpoint is wrong, not slow: retrying is pointless and
// must stop after the first attempt.
func TestDialDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	_, err := Dial(context.Background(), srv.URL, srv.Client(), WithRetry(5, time.Millisecond))
	if err == nil {
		t.Fatal("dial against 404 succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusNotFound {
		t.Fatalf("want StatusError 404, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("schema endpoint hit %d times, want 1", got)
	}
}

// Search failures carry the numeric status so the resilience layer can
// tell retryable 5xx from permanent 4xx.
func TestSearchStatusError(t *testing.T) {
	db, client, _ := testPair(t, 20, 5, 12)
	_ = db
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client.base = srv.URL
	client.hc = srv.Client()
	_, err := client.Search(context.Background(), relation.Predicate{})
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503, got %v", err)
	}
	if !strings.Contains(se.Error(), "search returned 503") {
		t.Fatalf("error message lost the status line: %q", se.Error())
	}
}

func TestHealthz(t *testing.T) {
	db, _, _ := testPair(t, 10, 5, 9)
	srv := httptest.NewServer(NewServer(db))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestDrainCloseReusesConnections is the regression test for the
// connection-reuse bug: closing a response body that was never read —
// the shape of every "fire the request, only check the status" call
// site and of every early-return error path — makes net/http discard
// the connection, so each request pays a fresh dial. DrainClose must
// keep the whole exchange on one connection, whether the body was
// decoded first or not.
func TestDrainCloseReusesConnections(t *testing.T) {
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}` + "\n"))
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	const reqs = 8
	do := func(decode bool, close func(*http.Response)) int64 {
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		dials.Store(0)
		for i := 0; i < reqs; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			if decode {
				var doc struct {
					OK bool `json:"ok"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
					t.Fatal(err)
				}
			}
			close(resp)
		}
		return dials.Load()
	}

	if got := do(false, DrainClose); got != 1 {
		t.Fatalf("unread + DrainClose: %d requests cost %d dials, want 1", reqs, got)
	}
	if got := do(true, DrainClose); got != 1 {
		t.Fatalf("decode + DrainClose: %d requests cost %d dials, want 1", reqs, got)
	}
	// The buggy shape: status checked, body never read, bare close. One
	// dial per request — this is what DrainClose exists to prevent.
	if got := do(false, func(r *http.Response) { r.Body.Close() }); got != reqs {
		t.Fatalf("unread + bare Close: %d requests cost %d dials, want %d (one per request) — if this starts reusing connections, net/http changed and DrainClose may be droppable", reqs, got, reqs)
	}
}

// TestDialPoolCoversFanOut checks that a client Dial builds itself keeps a
// batch's connections alive for the next batch: waves of concurrent
// searches as wide as the engine's fan-out reuse the first wave's
// connections instead of dialling afresh, as net/http's default pool of 2
// idle connections per host would.
func TestDialPoolCoversFanOut(t *testing.T) {
	cat := datagen.BlueNile(200, 1)
	db, err := hidden.NewLocal(cat.Name, cat.Rel, 10, cat.Rank, hidden.WithLatency(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(NewServer(db))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client, err := Dial(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.hc.CloseIdleConnections()

	const fanOut, waves = 8, 4
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for i := 0; i < fanOut; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Search(context.Background(), relation.Predicate{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if got := dials.Load(); got > fanOut {
		t.Fatalf("schema fetch + %d waves of %d concurrent searches cost %d dials, want at most %d", waves, fanOut, got, fanOut)
	}
}
