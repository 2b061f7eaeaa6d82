package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the load driver: a fixed set of client goroutines, one
// persistent connection each, replaying a trace's steps against the
// entry replicas closed-loop (send the next request when the previous
// one completes) or open-loop (send each step's query when it is due,
// or as soon after as the connection is free, and time it from when it
// was due).

// respDoc is the part of an /api/query or /api/next response the driver
// reads. Rows stay raw: verification compares them byte for byte.
type respDoc struct {
	QID   string          `json:"qid"`
	Rows  json.RawMessage `json:"rows"`
	Stats struct {
		Queries          int64   `json:"queries"`
		Batches          int64   `json:"batches"`
		ParallelPct      float64 `json:"parallel_pct"`
		DenseHits        int64   `json:"dense_hits"`
		DenseCrawls      int64   `json:"dense_crawls"`
		CrawledTuples    int64   `json:"crawled_tuples"`
		CacheCandidates  int64   `json:"cache_candidates"`
		SessionCacheSize int64   `json:"session_cache_size"`
	} `json:"stats"`
	Degraded bool `json:"degraded"`
}

// answerSample is one sampled session kept for verification: the form
// and the rows of every page the session fetched, in order.
type answerSample struct {
	form  string
	pages [][]byte
}

// engineCounts sums the statistics panels of a phase's answers. The
// panel is cumulative per cursor, so each page contributes its delta.
type engineCounts struct {
	answers         int64 // 200 responses carrying a page
	lookups         int64 // engine searches against the source stack (cache hits included)
	batches         int64
	parallelLookups float64 // lookups issued in multi-query batches
	denseHits       int64
	denseCrawls     int64
	crawledTuples   int64
	cacheCandidates int64
	sessionCacheSum int64 // Σ session_cache_size over answers
	respBytes       int64
}

func (a *engineCounts) add(b engineCounts) {
	a.answers += b.answers
	a.lookups += b.lookups
	a.batches += b.batches
	a.parallelLookups += b.parallelLookups
	a.denseHits += b.denseHits
	a.denseCrawls += b.denseCrawls
	a.crawledTuples += b.crawledTuples
	a.cacheCandidates += b.cacheCandidates
	a.sessionCacheSum += b.sessionCacheSum
	a.respBytes += b.respBytes
}

// stepTimes are one open-loop step's query due and completion instants,
// kept to reconstruct the backlog afterwards.
type stepTimes struct{ due, done time.Time }

// phaseResult is what one replayed phase measured.
type phaseResult struct {
	start       time.Time
	wall        time.Duration   // first send to last response
	clientWall  []time.Duration // per client: its first send to its last response
	clientOK    []int           // per client: requests answered 200
	driverCPUUs float64
	attempted   int
	failed      int
	firstErr    string
	queryMs     []float64
	nextMs      []float64
	latenessMs  []float64 // open loop only
	steps       []stepTimes
	counts      engineCounts
	samples     []answerSample
}

func (p *phaseResult) ok() int { return p.attempted - p.failed }

// merge folds a worker's result into p.
func (p *phaseResult) merge(w *phaseResult) {
	p.attempted += w.attempted
	p.failed += w.failed
	if p.firstErr == "" {
		p.firstErr = w.firstErr
	}
	p.queryMs = append(p.queryMs, w.queryMs...)
	p.nextMs = append(p.nextMs, w.nextMs...)
	p.latenessMs = append(p.latenessMs, w.latenessMs...)
	p.steps = append(p.steps, w.steps...)
	p.counts.add(w.counts)
	p.samples = append(p.samples, w.samples...)
}

// backlogAt counts the open-loop steps due at or before t and not yet
// answered at t.
func (p *phaseResult) backlogAt(t time.Time) int {
	n := 0
	for _, s := range p.steps {
		if !s.due.After(t) && s.done.After(t) {
			n++
		}
	}
	return n
}

// driver holds the per-client connections and the user population's
// cookies across the warm and timed phases of one round.
type driver struct {
	targets []string // client c talks to targets[c%len(targets)]
	clients []*http.Client
	cookies []string // session cookie per user, learned from the first response
	// rec, when set, gives every request an id (sent in reqHeader) and
	// records its edge span.
	rec *recorder
}

func newDriver(targets []string, clients, users int) *driver {
	d := &driver{targets: targets, cookies: make([]string, users)}
	for c := 0; c < clients; c++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

const sessionCookie = "qr2_session"

// post sends one form and returns the status, the fully read body and
// the instants bracketing send → last body byte.
func (d *driver) post(c int, path, body string, user int, buf *bytes.Buffer) (status int, sent, done time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, d.targets[c%len(d.targets)]+path, strings.NewReader(body))
	if err != nil {
		return 0, sent, done, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if ck := d.cookies[user]; ck != "" {
		req.Header.Set("Cookie", sessionCookie+"="+ck)
	}
	var id int32
	if d.rec != nil {
		id = d.rec.nextReq()
		req.Header.Set(reqHeader, strconv.Itoa(int(id)))
	}
	sent = time.Now()
	resp, err := d.clients[c].Do(req)
	if err != nil {
		return 0, sent, time.Now(), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	done = time.Now()
	resp.Body.Close()
	d.rec.add(id, "edge", "", sent, done)
	if d.cookies[user] == "" {
		for _, ck := range resp.Cookies() {
			if ck.Name == sessionCookie {
				d.cookies[user] = ck.Value
			}
		}
	}
	return resp.StatusCode, sent, done, err
}

// replay runs steps to completion on the first nc clients. open selects
// the open-loop discipline; verifyEvery > 0 keeps every verifyEvery-th
// step (offset by verifyOffset) as an answerSample.
func (d *driver) replay(steps []Step, nc int, open bool, verifyEvery, verifyOffset int) *phaseResult {
	perClient := make([][]int, nc)
	for i, s := range steps {
		perClient[s.User%nc] = append(perClient[s.User%nc], i)
	}
	workers := make([]*phaseResult, nc)
	var ru0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &phaseResult{}
			workers[c] = w
			var buf bytes.Buffer
			connFree := start
			for _, i := range perClient[c] {
				s := steps[i]
				keep := verifyEvery > 0 && (i+verifyOffset)%verifyEvery == 0
				connFree = d.runStep(c, s, start, connFree, open, keep, w, &buf)
			}
			w.wall = connFree.Sub(start)
		}(c)
	}
	wg.Wait()
	res := &phaseResult{start: start, wall: time.Since(start)}
	var ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	res.driverCPUUs = float64(tvUs(ru1.Utime)+tvUs(ru1.Stime)) - float64(tvUs(ru0.Utime)+tvUs(ru0.Stime))
	for _, w := range workers {
		res.merge(w)
		res.clientWall = append(res.clientWall, w.wall)
		res.clientOK = append(res.clientOK, w.ok())
	}
	return res
}

// spinWindow is how long before an arrival's due time its sender stops
// sleeping and starts yielding in a loop. A timer wake-up on the 2-core
// box this was sized on lands 0.5 to 1 ms late under load, which would
// make the generator itself late by as much; arrivals are milliseconds
// apart, so the spinning costs a few percent of one core.
const spinWindow = 1500 * time.Microsecond

func sleepUntil(t time.Time) {
	if wait := time.Until(t) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func tvUs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }

// runStep issues one step's query and follow-up pages on client c and
// returns when the connection became free again.
func (d *driver) runStep(c int, s Step, start, connFree time.Time, open, keep bool, w *phaseResult, buf *bytes.Buffer) time.Time {
	due := start.Add(s.Due)
	if open {
		sleepUntil(due)
	}
	var sample answerSample
	var prev respDoc
	path, body := "/api/query", s.Form
	for page := 0; page <= s.Next; page++ {
		status, sent, done, err := d.post(c, path, body, s.User, buf)
		w.attempted++
		lat := done.Sub(sent)
		if open && page == 0 {
			var late time.Duration
			lat, late = openLoopTimes(due, connFree, sent, done)
			w.latenessMs = append(w.latenessMs, ms(late))
			w.steps = append(w.steps, stepTimes{due: due, done: done})
		}
		if page == 0 {
			w.queryMs = append(w.queryMs, ms(lat))
		} else {
			w.nextMs = append(w.nextMs, ms(lat))
		}
		connFree = done
		var doc respDoc
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &doc)
		}
		switch {
		case err != nil:
			w.fail(fmt.Sprintf("%s %s: %v", path, s.Form, err), s.Next-page)
			return connFree
		case status != http.StatusOK:
			w.fail(fmt.Sprintf("%s %s: status %d: %s", path, s.Form, status, bytes.TrimSpace(buf.Bytes())), s.Next-page)
			return connFree
		case doc.Degraded:
			// A degraded page is a 200 the oracle cannot vouch for; no
			// workload here should ever produce one.
			w.fail(fmt.Sprintf("%s %s: degraded answer", path, s.Form), s.Next-page)
			return connFree
		}
		w.counts.answers++
		w.counts.respBytes += int64(buf.Len())
		w.counts.lookups += doc.Stats.Queries - prev.Stats.Queries
		w.counts.batches += doc.Stats.Batches - prev.Stats.Batches
		w.counts.parallelLookups += doc.Stats.ParallelPct/100*float64(doc.Stats.Queries) -
			prev.Stats.ParallelPct/100*float64(prev.Stats.Queries)
		w.counts.denseHits += doc.Stats.DenseHits - prev.Stats.DenseHits
		w.counts.denseCrawls += doc.Stats.DenseCrawls - prev.Stats.DenseCrawls
		w.counts.crawledTuples += doc.Stats.CrawledTuples - prev.Stats.CrawledTuples
		w.counts.cacheCandidates += doc.Stats.CacheCandidates - prev.Stats.CacheCandidates
		w.counts.sessionCacheSum += doc.Stats.SessionCacheSize
		if keep {
			sample.pages = append(sample.pages, append([]byte(nil), doc.Rows...))
		}
		prev = doc
		path, body = "/api/next", "qid="+doc.QID
	}
	if keep {
		sample.form = s.Form
		w.samples = append(w.samples, sample)
	}
	return connFree
}

// fail records a failed request plus the skipped follow-ups of its step:
// a page that could not be asked for missed its limit just the same.
func (p *phaseResult) fail(msg string, skipped int) {
	p.failed += 1 + skipped
	p.attempted += skipped
	if p.firstErr == "" {
		p.firstErr = msg
	}
}
