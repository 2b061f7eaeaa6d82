package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/obs"
)

// This file turns a run into the per-layer ledger: counter deltas of the
// untraced rounds (source C) and span arithmetic over the traced
// in-process passes (source T). Every workload reports every metric;
// one that does not apply (cluster.* off the ring) reads zero.

// obsPaths are the decision paths of the program's request-latency
// histograms.
var obsPaths = []string{
	obs.PathPool.String(), obs.PathContainment.String(), obs.PathCrawlSet.String(),
	obs.PathDense.String(), obs.PathPeer.String(), obs.PathWeb.String(), obs.PathNone.String(),
}

// perLayer lists the per-layer metrics in BENCHMARK.json's order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The paper's cost and the rest of the driver's view (C).
		{Name: "wdb.queries_per_answer", Unit: "count", Better: "lower"},
		{Name: "driver.query_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.next_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.cpu_us_per_req", Unit: "us", Better: "lower"},
		{Name: "driver.lateness_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "proc.cpu_user_us_per_req", Unit: "us", Better: "lower"},
		{Name: "proc.cpu_sys_us_per_req", Unit: "us", Better: "lower"},
		{Name: "wdbserver.cpu_us_per_query", Unit: "us", Better: "lower"},
		// net/http and service (T, except resp_bytes).
		{Name: "nethttp.self_us", Unit: "us", Better: "lower"},
		{Name: "service.handle_us", Unit: "us", Better: "lower"},
		{Name: "service.self_us", Unit: "us", Better: "lower"},
		{Name: "service.unattributed_us", Unit: "us", Better: "lower"},
		{Name: "service.unattributed_pct", Unit: "%", Better: "lower"},
		{Name: "service.allocs_per_req", Unit: "count", Better: "lower"},
		{Name: "service.bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "service.resp_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "ranking.parse_us", Unit: "us", Better: "lower"},
		{Name: "wdbhttp.parse_filter_us", Unit: "us", Better: "lower"},
		// session
		{Name: "session.get_us", Unit: "us", Better: "lower"},
		{Name: "session.cached_matching_us", Unit: "us", Better: "lower"},
		{Name: "session.live", Unit: "count", Better: "lower"},
		{Name: "session.cache_size_mean", Unit: "count", Better: "lower"},
		// core
		{Name: "core.page_us", Unit: "us", Better: "lower"},
		{Name: "core.self_us", Unit: "us", Better: "lower"},
		{Name: "core.lookups_per_page", Unit: "count", Better: "lower"},
		{Name: "core.allocs_per_page", Unit: "count", Better: "lower"},
		{Name: "core.lookups_per_answer", Unit: "count", Better: "lower"},
		{Name: "core.batches_per_answer", Unit: "count", Better: "lower"},
		{Name: "core.parallel_pct", Unit: "%", Better: "higher"},
		{Name: "core.dense_crawls", Unit: "count", Better: "lower"},
		{Name: "core.crawled_tuples", Unit: "count", Better: "lower"},
		{Name: "core.cache_candidates_per_req", Unit: "count", Better: "higher"},
		// qcache
		{Name: "qcache.search_us", Unit: "us", Better: "lower"},
		{Name: "qcache.self_us_per_req", Unit: "us", Better: "lower"},
		{Name: "qcache.allocs_per_search", Unit: "count", Better: "lower"},
		{Name: "qcache.lookups_per_req", Unit: "count", Better: "lower"},
		{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "qcache.containment_hits_per_req", Unit: "count", Better: "higher"},
		{Name: "qcache.crawl_hits_per_req", Unit: "count", Better: "higher"},
		{Name: "qcache.coalesced", Unit: "count", Better: "higher"},
		{Name: "qcache.evictions_per_req", Unit: "count", Better: "lower"},
		{Name: "qcache.entries", Unit: "count", Better: "lower"},
		{Name: "qcache.bytes", Unit: "B", Better: "lower"},
		// dense
		{Name: "dense.finds_per_req", Unit: "count", Better: "lower"},
		{Name: "dense.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "dense.entries", Unit: "count", Better: "lower"},
		{Name: "dense.resident_bytes", Unit: "B", Better: "lower"},
		{Name: "dense.resident_evictions", Unit: "count", Better: "lower"},
		// resilience and the source
		{Name: "resilience.self_us_per_call", Unit: "us", Better: "lower"},
		{Name: "resilience.attempts_per_req", Unit: "count", Better: "lower"},
		{Name: "resilience.retries", Unit: "count", Better: "lower"},
		{Name: "resilience.failures", Unit: "count", Better: "lower"},
		{Name: "resilience.short_circuits", Unit: "count", Better: "lower"},
		{Name: "source.search_us", Unit: "us", Better: "lower"},
		{Name: "source.busy_us_per_req", Unit: "us", Better: "lower"},
		// cluster
		{Name: "cluster.source_search_us", Unit: "us", Better: "lower"},
		{Name: "cluster.self_us_per_req", Unit: "us", Better: "lower"},
		{Name: "cluster.forwards_per_req", Unit: "count", Better: "lower"},
		{Name: "cluster.forward_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "cluster.owned_local_per_req", Unit: "count", Better: "higher"},
		{Name: "cluster.frames_per_req", Unit: "count", Better: "lower"},
		{Name: "cluster.batch_mean_occupancy", Unit: "count", Better: "higher"},
		{Name: "cluster.fallbacks", Unit: "count", Better: "lower"},
		{Name: "cluster.http_fallbacks", Unit: "count", Better: "lower"},
		// The program's own obs histograms: a cross-check on T.
		{Name: "obs.rerank_mean_us", Unit: "us", Better: "lower"},
		{Name: "obs.pool_lookup_mean_us", Unit: "us", Better: "lower"},
		{Name: "obs.web_query_mean_us", Unit: "us", Better: "lower"},
	}
	for _, p := range obsPaths {
		defs = append(defs, metricDef{Name: "obs.request_mean_us." + p, Unit: "us", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "trace.edge_mean_us", Unit: "us", Better: "lower"},
		metricDef{Name: "trace.ledger_sum_us", Unit: "us", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
}()

// counterMetrics computes the source-C metrics from the untraced rounds.
func (r *runResult) counterMetrics(m map[string]float64) {
	c := newCounters()
	var cnt engineCounts
	var ok, user, sys, wdbCPU, driverCPU float64
	var query, next, late []float64
	for _, rd := range r.rounds {
		c.add(rd.delta)
		cnt.add(rd.timed.counts)
		ok += float64(rd.timed.ok())
		user += rd.cpuUs.userUs
		sys += rd.cpuUs.sysUs
		wdbCPU += rd.wdbCPU
		driverCPU += rd.timed.driverCPUUs
		query = append(query, rd.timed.queryMs...)
		next = append(next, rd.timed.nextMs...)
		late = append(late, rd.timed.latenessMs...)
	}
	t, g := c.total, c.gauge
	answers := float64(cnt.answers)
	lookups := t["qcache.hits"] + t["qcache.containment_hits"] + t["qcache.crawl_hits"] + t["qcache.misses"]

	m["wdb.queries_per_answer"] = ratio(t["resilience.attempts"], answers)
	// p99 only where at least ten samples lie beyond it.
	if q := sortedCopy(query); samplesBeyond(len(q), 0.99) >= 10 {
		m["driver.query_p99_ms"] = percentile(q, 0.99)
	}
	if n := sortedCopy(next); samplesBeyond(len(n), 0.99) >= 10 {
		m["driver.next_p99_ms"] = percentile(n, 0.99)
	}
	m["driver.cpu_us_per_req"] = ratio(driverCPU, ok)
	m["driver.lateness_p99_ms"] = percentile(sortedCopy(late), 0.99)
	m["proc.cpu_user_us_per_req"] = ratio(user, ok)
	m["proc.cpu_sys_us_per_req"] = ratio(sys, ok)
	m["wdbserver.cpu_us_per_query"] = ratio(wdbCPU, t["resilience.attempts"])
	m["service.resp_bytes_per_req"] = ratio(float64(cnt.respBytes), answers)
	m["session.live"] = g["sessions"]
	m["session.cache_size_mean"] = ratio(float64(cnt.sessionCacheSum), answers)
	m["core.lookups_per_answer"] = ratio(float64(cnt.lookups), answers)
	m["core.batches_per_answer"] = ratio(float64(cnt.batches), answers)
	m["core.parallel_pct"] = 100 * ratio(cnt.parallelLookups, float64(cnt.lookups))
	m["core.dense_crawls"] = float64(cnt.denseCrawls)
	m["core.crawled_tuples"] = float64(cnt.crawledTuples)
	m["core.cache_candidates_per_req"] = ratio(float64(cnt.cacheCandidates), answers)
	m["qcache.lookups_per_req"] = ratio(lookups, ok)
	m["qcache.hit_ratio"] = ratio(lookups-t["qcache.misses"], lookups)
	m["qcache.containment_hits_per_req"] = ratio(t["qcache.containment_hits"], ok)
	m["qcache.crawl_hits_per_req"] = ratio(t["qcache.crawl_hits"], ok)
	m["qcache.coalesced"] = t["qcache.coalesced"]
	m["qcache.evictions_per_req"] = ratio(t["qcache.evictions"], ok)
	m["qcache.entries"] = g["qcache.entries"]
	m["qcache.bytes"] = g["qcache.bytes"]
	m["dense.finds_per_req"] = ratio(t["dense.hits"]+t["dense.misses"], ok)
	m["dense.hit_ratio"] = ratio(t["dense.hits"], t["dense.hits"]+t["dense.misses"])
	m["dense.entries"] = g["dense.entries"]
	m["dense.resident_bytes"] = g["dense.resident_bytes"]
	m["dense.resident_evictions"] = t["dense.resident_evictions"]
	m["resilience.attempts_per_req"] = ratio(t["resilience.attempts"], ok)
	m["resilience.retries"] = t["resilience.retries"]
	m["resilience.failures"] = t["resilience.failures"]
	m["resilience.short_circuits"] = t["resilience.short_circuits"]
	m["cluster.forwards_per_req"] = ratio(t["cluster.forwards"], ok)
	m["cluster.forward_hit_ratio"] = ratio(t["cluster.forward_hits"], t["cluster.forwards"])
	m["cluster.owned_local_per_req"] = ratio(t["cluster.owned_local"], ok)
	m["cluster.frames_per_req"] = ratio(t["cluster.frames_sent"], ok)
	m["cluster.batch_mean_occupancy"] = ratio(t["cluster.batched_gets"], t["cluster.batches_sent"])
	m["cluster.fallbacks"] = t["cluster.fallbacks"]
	m["cluster.http_fallbacks"] = t["cluster.http_fallbacks"]
	m["obs.rerank_mean_us"] = c.meanUs("obs.stage." + obs.StageRerank.String())
	m["obs.pool_lookup_mean_us"] = c.meanUs("obs.stage." + obs.StagePoolLookup.String())
	m["obs.web_query_mean_us"] = c.meanUs("obs.stage." + obs.StageWebQuery.String())
	for _, p := range obsPaths {
		m["obs.request_mean_us."+p] = c.meanUs("obs.request." + p)
	}
}

// tracedResult is everything the traced in-process passes produced.
type tracedResult struct {
	plain, traced *httpPassResult // HTTP pass without and with spans
	httpRec       *recorder
	engine        *enginePassResult
	engineRec     *recorder
}

// runTraced runs the three in-process passes over the first
// spec.TraceRequests requests of round 0's trace and writes the span
// file.
func runTraced(ctx context.Context, e *env, spec *Spec, seed int64) (*tracedResult, error) {
	tr, err := genTrace(spec, e.pools, seed, 0, e.scale, spec.TraceRequests)
	if err != nil {
		return nil, err
	}
	logDir := filepath.Join(e.outDir, spec.Name)
	t := &tracedResult{httpRec: newRecorder("http"), engineRec: newRecorder("engine")}
	if t.plain, err = httpPass(ctx, spec, tr, e.pools.cats, nil, logDir); err != nil {
		return nil, err
	}
	if t.traced, err = httpPass(ctx, spec, tr, e.pools.cats, t.httpRec, logDir); err != nil {
		return nil, err
	}
	if t.engine, err = enginePass(ctx, spec, tr, e.pools.cats, t.engineRec); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(e.outDir, spec.Name+".spans.jsonl"), t.httpRec, t.engineRec); err != nil {
		return nil, err
	}
	return t, nil
}

// tracedMetrics computes the source-T metrics. A layer's self time is
// the time its spans cover minus the time its child layer's spans cover
// (the children nest inside the parents, so the union of the children
// lies inside the union of the parents); parallel calls count once.
func (t *tracedResult) tracedMetrics(spec *Spec, m map[string]float64) error {
	// HTTP pass: edge and service per request.
	var edge, handle []float64
	for _, spans := range t.httpRec.byReq() {
		if len(spans["edge"]) != 1 || len(spans["service"]) != 1 {
			return fmt.Errorf("trace: a request of the HTTP pass has %d edge and %d service spans", len(spans["edge"]), len(spans["service"]))
		}
		edge = append(edge, spans["edge"][0].dur())
		handle = append(handle, spans["service"][0].dur())
	}
	edgeMean, handleMean := mean(edge), mean(handle)

	// Engine pass: bench-side timings plus the stack's spans.
	top := "qcache"
	if spec.Replicas > 1 {
		top = "cluster"
	}
	byReq := t.engineRec.byReq()
	var parseRank, parseFilter, sessGet, matching, page, encode, pageAllocs []float64
	var coreSelf, topSelf, resSelf, srcBusy []float64
	var topSpans, resSpans, srcSpans, topDur, srcDur float64
	for _, er := range t.engine.reqs {
		spans := byReq[er.id]
		// Only queries parse and resolve a session; a next page's share of
		// those costs is zero, and the means are per request.
		parseRank = append(parseRank, er.parseRank)
		parseFilter = append(parseFilter, er.parseFilter)
		sessGet = append(sessGet, er.sessionGet)
		matching = append(matching, er.cachedMatching)
		page = append(page, er.page)
		encode = append(encode, er.encode)
		pageAllocs = append(pageAllocs, er.pageAllocs)

		uTop, uRes, uSrc := busyUs(spans[top]), busyUs(spans["resilience"]), busyUs(spans["source"])
		coreSelf = append(coreSelf, er.page-uTop)
		topSelf = append(topSelf, uTop-uRes)
		resSelf = append(resSelf, uRes-uSrc)
		srcBusy = append(srcBusy, uSrc)
		topSpans += float64(len(spans[top]))
		resSpans += float64(len(spans["resilience"]))
		srcSpans += float64(len(spans["source"]))
		topDur += sumUs(spans[top])
		srcDur += sumUs(spans["source"])
	}
	n := float64(len(t.engine.reqs))
	parseMean := mean(parseRank) + mean(parseFilter)
	unattributed := handleMean - parseMean - mean(sessGet) - mean(page) - mean(encode)

	m["nethttp.self_us"] = edgeMean - handleMean
	m["service.handle_us"] = handleMean
	m["service.self_us"] = mean(encode)
	m["service.unattributed_us"] = unattributed
	m["service.unattributed_pct"] = 100 * ratio(unattributed, handleMean)
	m["service.allocs_per_req"] = t.traced.allocsPerReq
	m["service.bytes_per_req"] = t.traced.bytesPerReq
	m["ranking.parse_us"] = mean(parseRank)
	m["wdbhttp.parse_filter_us"] = mean(parseFilter)
	m["session.get_us"] = mean(sessGet)
	m["session.cached_matching_us"] = mean(matching)
	m["core.page_us"] = mean(page)
	m["core.self_us"] = mean(coreSelf)
	m["core.lookups_per_page"] = ratio(topSpans, n)
	m["core.allocs_per_page"] = mean(pageAllocs)
	m["resilience.self_us_per_call"] = ratio(sumOf(resSelf), resSpans)
	m["source.search_us"] = ratio(srcDur, srcSpans)
	m["source.busy_us_per_req"] = mean(srcBusy)
	if top == "qcache" {
		m["qcache.search_us"] = ratio(topDur, topSpans)
		m["qcache.self_us_per_req"] = mean(topSelf)
	} else {
		// On the ring the cluster source calls the answer cache itself, so
		// the cache's time is inside the cluster layer's self time.
		m["cluster.source_search_us"] = ratio(topDur, topSpans)
		m["cluster.self_us_per_req"] = mean(topSelf)
	}
	m["qcache.allocs_per_search"] = t.engine.allocsPerSearch

	// The ledger: every row above that is a share of one request's edge
	// time. It sums to the traced edge mean by construction —
	// service.unattributed_us is the remainder — and both are reported so
	// a reader can check.
	m["trace.edge_mean_us"] = edgeMean
	m["trace.ledger_sum_us"] = m["nethttp.self_us"] + m["service.self_us"] + parseMean + m["session.get_us"] +
		m["core.self_us"] + mean(topSelf) + mean(resSelf) + mean(srcBusy) + unattributed
	plain := percentile(sortedCopy(append(append([]float64(nil), t.plain.timed.queryMs...), t.plain.timed.nextMs...)), 0.5)
	traced := percentile(sortedCopy(append(append([]float64(nil), t.traced.timed.queryMs...), t.traced.timed.nextMs...)), 0.5)
	m["trace.overhead_pct"] = 100 * ratio(traced-plain, plain)
	return nil
}

// perLayerMetrics assembles the -trace 1 result.
func perLayerMetrics(run *runResult, t *tracedResult) (map[string]value, error) {
	m := map[string]float64{}
	run.counterMetrics(m)
	if err := t.tracedMetrics(run.spec, m); err != nil {
		return nil, err
	}
	out := map[string]value{}
	for _, d := range perLayer {
		out[d.Name] = value{m[d.Name], d.Unit}
	}
	return out, nil
}
