package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// roundResult is one round: fresh children, warm phase, timed trace.
type roundResult struct {
	setup   time.Duration
	timed   *phaseResult
	delta   *counters // public counters over the timed phase
	cpuUs   procSample
	wdbCPU  float64 // Σ wdbserver CPU over the timed phase, µs
	rssMiB  float64
	invalid []string // reasons the round's outputs are not correct
}

// env is what every round of a run shares.
type env struct {
	bins   binaries
	outDir string
	pools  *pools
	oracle *oracle
	scale  float64
}

// liveRound is a launched, warmed fleet with its driver.
type liveRound struct {
	fl    *fleet
	d     *driver
	tr    *Trace
	setup time.Duration
}

func (l *liveRound) stop() {
	l.d.close()
	l.fl.stop()
}

// startRound generates round's trace, launches spec's children and
// replays the warm phase. The returned set-up time runs from the first
// child's launch to the end of the warm phase.
func startRound(ctx context.Context, e *env, spec *Spec, seed int64, round int) (*liveRound, error) {
	tr, err := genTrace(spec, e.pools, seed, round, e.scale, 0)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	fl, err := launchFleet(ctx, spec, e.bins, filepath.Join(e.outDir, spec.Name))
	if err != nil {
		return nil, err
	}
	// Client c talks to entry replica c; a ring's third replica only ever
	// sees peer traffic.
	targets := make([]string, spec.Clients)
	for c := range targets {
		targets[c] = fl.qr2s[c%len(fl.qr2s)].url()
	}
	l := &liveRound{fl: fl, d: newDriver(targets, spec.Clients, tr.userSlots()), tr: tr}
	if warm := l.d.replay(tr.Warm, spec.Clients, false, 0, 0); warm.failed > 0 {
		l.stop()
		return nil, fmt.Errorf("%s: warm phase: %d of %d requests failed: %s", spec.Name, warm.failed, warm.attempted, warm.firstErr)
	}
	l.setup = time.Since(began)
	return l, nil
}

// reading is everything read from a fleet at one instant: the qr2server
// children's public counters and both kinds of children's /proc
// accounting.
type reading struct {
	counters *counters
	qr2, wdb procSample
}

func takeReading(ctx context.Context, fl *fleet) (r reading, err error) {
	if r.counters, err = scrape(ctx, fl.qr2s); err != nil {
		return r, err
	}
	if r.qr2, err = readProcs(fl.qr2s); err != nil {
		return r, err
	}
	r.wdb, err = readProcs(fl.wdbs)
	return r, err
}

// runRound is one round: fresh children, warm phase, the timed trace
// bracketed by counter and /proc readings, tear-down, verification.
func runRound(ctx context.Context, e *env, spec *Spec, seed int64, round int) (*roundResult, error) {
	l, err := startRound(ctx, e, spec, seed, round)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	fl := l.fl
	r := &roundResult{setup: l.setup}

	before, err := takeReading(ctx, fl)
	if err != nil {
		return nil, err
	}
	r.timed = l.d.replay(l.tr.Timed, spec.Clients, spec.Open, spec.VerifyEvery, int(seed%int64(spec.VerifyEvery)))
	after, err := takeReading(ctx, fl)
	if err != nil {
		return nil, err
	}
	l.stop()

	r.delta = after.counters.since(before.counters)
	r.cpuUs = procSample{userUs: after.qr2.userUs - before.qr2.userUs, sysUs: after.qr2.sysUs - before.qr2.sysUs}
	r.wdbCPU = after.wdb.userUs + after.wdb.sysUs - before.wdb.userUs - before.wdb.sysUs
	r.rssMiB = after.qr2.hwmMiB

	if r.timed.failed > 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("%d of %d requests failed: %s", r.timed.failed, r.timed.attempted, r.timed.firstErr))
	}
	if spec.ZeroWeb && r.delta.total["resilience.attempts"] != 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("%g web-database queries in a phase that must issue none", r.delta.total["resilience.attempts"]))
	}
	for _, s := range r.timed.samples {
		if err := e.oracle.check(s); err != nil {
			r.invalid = append(r.invalid, err.Error())
			break
		}
	}
	return r, nil
}

// Ladder shape: each step raises the arrival rate by a quarter and lasts
// ladderStepSeconds. The latency limit applies to the step's query p90,
// the tail this benchmark gates everywhere: a single region crawl takes
// about half a second, so one crawl in a six-second step decides p99
// whatever the load is, while p90 moves when a queue forms.
const (
	ladderFactor      = 1.25
	ladderSteps       = 6
	ladderStepSeconds = 6.0
	ladderLimitMs     = 250.0
	ladderRound       = 1000 // keeps the ladder's random streams apart from the rounds'
)

// ladderStep is one rate of the open-loop rate ladder.
type ladderStep struct {
	RateRPS     float64 `json:"rate_rps"` // offered requests per second
	GoodputRPS  float64 `json:"goodput_rps"`
	P90Ms       float64 `json:"query_p90_ms"` // from the due time
	Samples     int     `json:"samples"`
	Failed      int     `json:"failed"`
	BacklogMid  int     `json:"backlog_mid"`
	BacklogEnd  int     `json:"backlog_end"`
	WithinLimit bool    `json:"within_limit"`
}

// runLadder climbs the rate ladder on one warmed fleet and returns the
// steps taken. The SLO rate is the highest rate whose step stayed within
// the p90 limit with no failed request and no growing backlog
// (in flight at the step's end at most two more than at its middle).
func runLadder(ctx context.Context, e *env, spec *Spec, seed int64) ([]ladderStep, error) {
	l, err := startRound(ctx, e, spec, seed, ladderRound)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	mix := e.pools.zipfMix(int(float64(spec.Universe)*e.scale), ladderRound)
	horizon := ladderStepSeconds * e.scale
	rate := spec.Rate
	var steps []ladderStep
	for i := 0; i < ladderSteps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := newGen(spec, seed, ladderRound+1+i)
		trace := mix.deal(g, int(rate*horizon+0.5), l.tr.Users)
		placeArrivals(g, trace, horizon)
		res := l.d.replay(trace, spec.Clients, true, 0, 0)
		q := sortedCopy(res.queryMs)
		st := ladderStep{
			RateRPS: rate * 1.5, GoodputRPS: float64(res.ok()) / horizon,
			P90Ms: percentile(q, 0.9), Samples: len(q), Failed: res.failed,
			BacklogMid: res.backlogAt(res.start.Add(time.Duration(horizon / 2 * float64(time.Second)))),
			BacklogEnd: res.backlogAt(res.start.Add(time.Duration(horizon * float64(time.Second)))),
		}
		st.WithinLimit = st.P90Ms <= ladderLimitMs && st.Failed == 0 && st.BacklogEnd <= st.BacklogMid+2
		steps = append(steps, st)
		if !st.WithinLimit {
			break
		}
		rate *= ladderFactor
	}
	return steps, nil
}

// sloRate is the highest ladder rate that stayed within the limit.
func sloRate(steps []ladderStep) float64 {
	best := 0.0
	for _, s := range steps {
		if s.WithinLimit && s.RateRPS > best {
			best = s.RateRPS
		}
	}
	return best
}

// runResult is one run: as many rounds as the measuring time buys.
type runResult struct {
	spec   *Spec
	rounds []*roundResult
}

// runWorkload runs seconds ÷ spec.RoundSeconds rounds (at least one).
// A round is a fixed trace, so the measuring time buys a whole number of
// them at the round length frozen in the spec; it is not a stopwatch on
// whatever happens to fit, because a request's cost grows with the age
// of its session and a faster program would otherwise be measured on
// older sessions than a slower one.
func runWorkload(ctx context.Context, e *env, spec *Spec, seed int64, seconds float64) (*runResult, error) {
	res := &runResult{spec: spec}
	rounds := max(1, int(seconds/spec.RoundSeconds+0.5))
	for round := 0; round < rounds; round++ {
		r, err := runRound(ctx, e, spec, seed, round)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
	}
	return res, nil
}

func (r *runResult) attempted() (attempted, failed int) {
	for _, rd := range r.rounds {
		attempted += rd.timed.attempted
		failed += rd.timed.failed
	}
	return
}

func (r *runResult) invalid() []string {
	var out []string
	for i, rd := range r.rounds {
		for _, why := range rd.invalid {
			out = append(out, fmt.Sprintf("round %d: %s", i, why))
		}
	}
	return out
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics reduces a run to the metrics of record. The rounds
// replay sessions of the same age against fresh servers, so they are
// replicates: latencies pool every round's samples, rates divide the
// run's totals, and the per-round readings report the median round.
func (r *runResult) endToEndMetrics() map[string]value {
	var setup, rss, query, next []float64
	var ok, cpu, wall float64
	clientOK := make([]float64, r.spec.Clients)
	clientWall := make([]float64, r.spec.Clients)
	for _, rd := range r.rounds {
		setup = append(setup, rd.setup.Seconds())
		rss = append(rss, rd.rssMiB)
		ok += float64(rd.timed.ok())
		wall += rd.timed.wall.Seconds()
		for c := range clientOK {
			clientOK[c] += float64(rd.timed.clientOK[c])
			clientWall[c] += rd.timed.clientWall[c].Seconds()
		}
		cpu += rd.cpuUs.userUs + rd.cpuUs.sysUs
		query = append(query, rd.timed.queryMs...)
		next = append(next, rd.timed.nextMs...)
	}
	// Closed loop: throughput is the sum of the clients' own rates — a
	// client that drew the cheaper half of a round finishes early, and its
	// idle tail is the trace's doing, not the server's. Open loop: goodput
	// over the arrival horizon.
	tput := 0.0
	if r.spec.Open {
		tput = ok / wall
	} else {
		for c := range clientOK {
			if clientWall[c] > 0 {
				tput += clientOK[c] / clientWall[c]
			}
		}
	}
	q, n := sortedCopy(query), sortedCopy(next)
	vals := map[string]float64{
		"setup_s":               median(setup),
		"throughput_rps":        tput,
		"query_p50_ms":          percentile(q, 0.5),
		"query_p90_ms":          percentile(q, 0.9),
		"next_p50_ms":           percentile(n, 0.5),
		"next_p90_ms":           percentile(n, 0.9),
		"server_cpu_us_per_req": cpu / ok,
		"server_rss_mb":         median(rss),
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.Name] = value{vals[m.Name], m.Unit}
	}
	return out
}
