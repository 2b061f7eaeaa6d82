package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"sync"
)

// This file is the multi-user trace replayer. A Trace is one user's
// session — a sequence of query forms with get-next follow-ups — and
// Replay drives many traces closed-loop against one or more replicas
// concurrently: a fixed worker pool, the next session starts when a
// worker frees up. Latency and throughput are measured by bench/, not
// here; Replay counts requests and errors and hands every query
// response to the caller.

// Step is one request of a user session: a query form plus the number
// of get-next follow-up calls issued in the same session.
type Step struct {
	Form url.Values
	Next int
}

// Trace is one user's session.
type Trace struct {
	User  string
	Steps []Step
}

// SynthTraces synthesizes a multi-user trace set over a hot form set:
// each of users sessions issues steps queries drawn from forms with a
// skewed (roughly 80/20) repetition pattern, so a shared answer pool
// sees the cross-user re-use the paper's economy depends on. The same
// seed always yields the same traces.
func SynthTraces(users, steps int, seed int64, forms []url.Values) []Trace {
	if len(forms) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	traces := make([]Trace, users)
	hot := len(forms)/3 + 1
	for u := range traces {
		tr := Trace{User: fmt.Sprintf("user-%02d", u)}
		for s := 0; s < steps; s++ {
			var form url.Values
			if rng.Float64() < 0.8 {
				form = forms[rng.Intn(hot)]
			} else {
				form = forms[rng.Intn(len(forms))]
			}
			tr.Steps = append(tr.Steps, Step{Form: form, Next: rng.Intn(3)})
		}
		traces[u] = tr
	}
	return traces
}

// ReplayConfig configures one Replay run.
type ReplayConfig struct {
	// Targets are replica base URLs; trace i is pinned to
	// Targets[i%len(Targets)], spreading users across the ring.
	Targets []string
	Traces  []Trace
	// Concurrency is the worker count (default 1).
	Concurrency int
	// Observe, when set, receives every query response body (fully
	// read) — the hook experiments use to compare answers across
	// replicas. Not called for get-next requests.
	Observe func(trace, step int, status int, body []byte)
}

// ReplayResult is what one Replay run counted.
type ReplayResult struct {
	Requests uint64 // HTTP requests issued (queries + get-nexts)
	Errors   uint64 // transport failures or non-200 statuses
}

// Replay drives the configured traces and returns what it counted. An
// error is returned only for a misconfigured run; request failures are
// counted in ReplayResult.Errors so a degraded service yields numbers,
// not an abort.
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("workload: replay needs at least one target")
	}
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("workload: replay needs at least one trace")
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()

	res := &ReplayResult{}
	var mu sync.Mutex
	record := func(ok bool) {
		mu.Lock()
		res.Requests++
		if !ok {
			res.Errors++
		}
		mu.Unlock()
	}

	workers := cfg.Concurrency
	if workers < 1 {
		workers = 1
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				runTrace(cfg, transport, i, record)
			}
		}()
	}
	for i := range cfg.Traces {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return res, nil
}

// runTrace replays one session against its pinned target from a fresh
// cookie jar, so the service sees a distinct user.
func runTrace(cfg ReplayConfig, transport http.RoundTripper, idx int, record func(bool)) {
	base := cfg.Targets[idx%len(cfg.Targets)]
	trace := cfg.Traces[idx]
	jar, err := cookiejar.New(nil)
	if err != nil {
		record(false)
		return
	}
	client := &http.Client{Transport: transport, Jar: jar}
	for s, step := range trace.Steps {
		resp, err := client.PostForm(base+"/api/query", step.Form)
		if err != nil {
			record(false)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() // ReadAll drained it; the conn pools
		record(err == nil && resp.StatusCode == http.StatusOK)
		if err != nil {
			continue
		}
		if cfg.Observe != nil {
			cfg.Observe(idx, s, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var doc struct {
			QID string `json:"qid"`
		}
		if json.Unmarshal(body, &doc) != nil || doc.QID == "" {
			continue
		}
		for n := 0; n < step.Next; n++ {
			resp, err := client.PostForm(base+"/api/next", url.Values{"qid": {doc.QID}})
			if err != nil {
				record(false)
				continue
			}
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			record(resp.StatusCode == http.StatusOK)
		}
	}
}
