package main

import (
	"encoding/json"
	"time"
)

// webLatency is every wdbserver child's -latency: a 600× scale-down of
// the ~1.2 s a live web database takes in the paper, so that a run fits
// its budget. Multiply web queries per answer by 1.2 s for the
// paper-scale cost.
const webLatency = 2 * time.Millisecond

// defaultSeconds is BENCHMARK.json's run_seconds; smokeScale is the size
// of a -smoke run.
const (
	defaultSeconds = 10
	smokeScale     = 1.0 / 20
)

// Spec freezes one workload. A run is a sequence of rounds; each round
// is fresh children, a warm phase and one fixed, seeded trace. Request
// counts are per round.
type Spec struct {
	Name string
	Why  string
	// Open selects the open-loop discipline (arrival schedule, latency
	// from due time); otherwise the loop is closed.
	Open     bool
	Users    int
	Clients  int
	Replicas int // qr2server children; clients are pinned to the first Clients of them
	// Requests is the timed trace length of a closed-loop round.
	Requests int
	// RoundSeconds is about how long a round's timed phase took when the
	// sizes were frozen; a run of s seconds is s/RoundSeconds rounds.
	RoundSeconds float64
	// Universe, WarmRequests, Rate, OpenSeconds and CacheBytes shape the
	// open-loop workload: a Zipf universe of forms, the closed-loop warm
	// replay that fills the cache, the frozen reference arrival rate
	// (steps per second), the timed horizon, and qr2server -cache-bytes.
	Universe     int
	WarmRequests int
	Rate         float64
	OpenSeconds  float64
	CacheBytes   int64
	// VerifyEvery samples one session in this many for the oracle.
	VerifyEvery int
	// ZeroWeb marks workloads whose timed phase must not reach the web
	// database at all.
	ZeroWeb bool
	// TraceRequests caps the traced in-process pass.
	TraceRequests int
}

var specs = []*Spec{
	{
		Name:  "warm-hot",
		Why:   "closed loop, 24 hot forms all pool-resident: zero web queries, so service edge, session, engine fan-out, qcache hit path and JSON encode are the whole cost",
		Users: 400, Clients: 2, Replicas: 1, Requests: 4000, RoundSeconds: 2,
		VerifyEvery: 50, ZeroWeb: true, TraceRequests: 2000,
	},
	{
		Name:  "cold-explore",
		Why:   "closed loop, never-repeated (predicate, ranking) pairs across all three correlation classes: the paper's cost, web queries per answer, plus every cache write path",
		Users: 100, Clients: 2, Replicas: 1, Requests: 120, RoundSeconds: 3.3,
		VerifyEvery: 10, TraceRequests: 120,
	},
	{
		Name: "mixed-zipf",
		Why:  "open loop at a frozen rate, Zipf(1.0) over forms with containment variants, cache smaller than the universe: hits and admissions contend while LRU evicts, queueing shows",
		Open: true, Users: 4000, Clients: 8, Replicas: 1,
		Universe: 300, WarmRequests: 600, Rate: 80, OpenSeconds: 5, RoundSeconds: 5, CacheBytes: 16 << 20,
		VerifyEvery: 25, TraceRequests: 200,
	},
	{
		Name:  "ring-forward",
		Why:   "closed loop on two entry replicas of a three-replica ring, hot forms resident at their owners: most lookups cross a peer socket, none reach the web",
		Users: 400, Clients: 2, Replicas: 3, Requests: 2400, RoundSeconds: 2.5,
		VerifyEvery: 50, ZeroWeb: true, TraceRequests: 1200,
	},
}

func specByName(name string) *Spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of record, in BENCHMARK.json's order. Every
// workload reports every one of them. The bounds are what the 2-core
// box they were measured on can resolve: its speed drifts by ±10–15 %
// over minutes (README.md, finding 6), and ten back-to-back runs of one
// commit spread by up to 20 % on the time-based metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"next_p50_ms", "ms", "lower", 0.25},
	{"next_p90_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_req", "us", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.15},
}

// benchmarkJSON renders BENCHMARK.json from the definitions above, so
// the file at the root of the repository cannot drift from the code (a
// test compares them).
func benchmarkJSON() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bounds: Bound is zero and omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workloadDef{s.Name, s.Why})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
