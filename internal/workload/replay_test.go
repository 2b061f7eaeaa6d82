package workload

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// replayStub emulates the two API endpoints the driver speaks, counting
// concurrent in-flight requests and sessions seen.
type replayStub struct {
	inflight atomic.Int64
	peak     atomic.Int64
	queries  atomic.Int64
	nexts    atomic.Int64
	delay    time.Duration

	mu       sync.Mutex
	sessions map[string]bool
}

func (st *replayStub) handler() http.Handler {
	mux := http.NewServeMux()
	track := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			cur := st.inflight.Add(1)
			for {
				p := st.peak.Load()
				if cur <= p || st.peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if st.delay > 0 {
				time.Sleep(st.delay)
			}
			h(w, r)
			st.inflight.Add(-1)
		}
	}
	mux.HandleFunc("/api/query", track(func(w http.ResponseWriter, r *http.Request) {
		st.queries.Add(1)
		if c, err := r.Cookie("sid"); err != nil || c.Value == "" {
			http.SetCookie(w, &http.Cookie{Name: "sid", Value: r.RemoteAddr + time.Now().String()})
		} else {
			st.mu.Lock()
			st.sessions[c.Value] = true
			st.mu.Unlock()
		}
		json.NewEncoder(w).Encode(map[string]string{"qid": "q1"})
	}))
	mux.HandleFunc("/api/next", track(func(w http.ResponseWriter, r *http.Request) {
		st.nexts.Add(1)
		json.NewEncoder(w).Encode(map[string]bool{"exhausted": true})
	}))
	return mux
}

func newReplayStub(delay time.Duration) *replayStub {
	return &replayStub{delay: delay, sessions: map[string]bool{}}
}

func testForms() []url.Values {
	return []url.Values{
		{"source": {"a"}, "rank": {"x"}},
		{"source": {"a"}, "rank": {"-x"}},
		{"source": {"b"}, "rank": {"y"}},
	}
}

func TestSynthTracesDeterministic(t *testing.T) {
	a := SynthTraces(8, 5, 42, testForms())
	b := SynthTraces(8, 5, 42, testForms())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a) != 8 || len(a[0].Steps) != 5 {
		t.Fatalf("want 8 traces of 5 steps, got %d of %d", len(a), len(a[0].Steps))
	}
	c := SynthTraces(8, 5, 43, testForms())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestClosedLoopReplay(t *testing.T) {
	st := newReplayStub(2 * time.Millisecond)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	traces := SynthTraces(12, 4, 7, testForms())
	var wantReqs uint64
	for _, tr := range traces {
		for _, s := range tr.Steps {
			wantReqs += uint64(1 + s.Next)
		}
	}
	var observed atomic.Int64
	res, err := Replay(ReplayConfig{
		Targets: []string{srv.URL}, Traces: traces,
		Concurrency: 4,
		Observe: func(trace, step, status int, body []byte) {
			if status == http.StatusOK && len(body) > 0 {
				observed.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != wantReqs || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want %d/0", res.Requests, res.Errors, wantReqs)
	}
	if got := observed.Load(); got != 12*4 {
		t.Fatalf("Observe saw %d query responses, want %d", got, 12*4)
	}
	if peak := st.peak.Load(); peak > 4 {
		t.Fatalf("closed loop with 4 workers reached %d concurrent requests", peak)
	}
}

func TestReplayCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	traces := []Trace{{Steps: []Step{{Form: testForms()[0]}, {Form: testForms()[1]}}}}
	res, err := Replay(ReplayConfig{Targets: []string{srv.URL}, Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.Errors != 2 {
		t.Fatalf("requests=%d errors=%d, want 2/2", res.Requests, res.Errors)
	}
}

func TestReplayConfigErrors(t *testing.T) {
	tr := []Trace{{Steps: []Step{{Form: testForms()[0]}}}}
	if _, err := Replay(ReplayConfig{Traces: tr}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := Replay(ReplayConfig{Targets: []string{"http://x"}}); err == nil {
		t.Fatal("no traces accepted")
	}
}
