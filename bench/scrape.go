package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/resilience"
)

// This file reads the program's own public counters — GET /api/stats and
// GET /cluster/obs on every qr2server child — and reduces them to the
// fleet-wide sums the per-layer metrics are computed from.

// apiStats is the part of /api/stats the benchmark reads.
type apiStats struct {
	Sessions int `json:"sessions"`
	Sources  map[string]struct {
		Cache                  *qcache.Stats     `json:"cache"`
		Resilience             *resilience.Stats `json:"resilience"`
		DenseEntries           int64             `json:"dense_entries"`
		DenseHits              int64             `json:"dense_hits"`
		DenseMisses            int64             `json:"dense_misses"`
		DenseResidentBytes     int64             `json:"dense_resident_bytes"`
		DenseResidentEvictions int64             `json:"dense_resident_evictions"`
	} `json:"sources"`
	Cluster *cluster.Stats `json:"cluster"`
}

// counters is one scrape summed over the fleet. total holds cumulative
// counters, differenced over a timed phase; gauge holds levels, read
// after it. Histograms appear in total as exact "<name>.ns" and
// "<name>.n" pairs (their sum and count), so means of deltas are exact,
// unlike the bucketed quantiles.
type counters struct {
	total map[string]float64
	gauge map[string]float64
}

func newCounters() *counters {
	return &counters{total: map[string]float64{}, gauge: map[string]float64{}}
}

// meanUs is the mean of histogram name over the counted interval, µs.
func (c *counters) meanUs(name string) float64 {
	return ratio(c.total[name+".ns"], c.total[name+".n"]) / 1e3
}

func getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scrape sums the public counters of every qr2server child.
func scrape(ctx context.Context, qr2s []*child) (*counters, error) {
	c := newCounters()
	t, g := c.total, c.gauge
	for _, ch := range qr2s {
		var st apiStats
		if err := getJSON(ctx, ch.url()+"/api/stats", &st); err != nil {
			return nil, err
		}
		g["sessions"] += float64(st.Sessions)
		for _, s := range st.Sources {
			if cs := s.Cache; cs != nil {
				g["qcache.entries"] += float64(cs.Entries)
				g["qcache.bytes"] += float64(cs.Bytes)
				t["qcache.hits"] += float64(cs.Hits)
				t["qcache.containment_hits"] += float64(cs.ContainmentHits)
				t["qcache.crawl_hits"] += float64(cs.CrawlHits)
				t["qcache.misses"] += float64(cs.Misses)
				t["qcache.coalesced"] += float64(cs.Coalesced)
				t["qcache.evictions"] += float64(cs.Evictions)
			}
			if rs := s.Resilience; rs != nil {
				t["resilience.attempts"] += float64(rs.Attempts)
				t["resilience.retries"] += float64(rs.Retries)
				t["resilience.failures"] += float64(rs.Failures)
				t["resilience.short_circuits"] += float64(rs.ShortCircuits)
			}
			g["dense.entries"] += float64(s.DenseEntries)
			g["dense.resident_bytes"] += float64(s.DenseResidentBytes)
			t["dense.hits"] += float64(s.DenseHits)
			t["dense.misses"] += float64(s.DenseMisses)
			t["dense.resident_evictions"] += float64(s.DenseResidentEvictions)
		}
		if cl := st.Cluster; cl != nil {
			t["cluster.owned_local"] += float64(cl.OwnedLocal)
			t["cluster.forwards"] += float64(cl.Forwards)
			t["cluster.forward_hits"] += float64(cl.ForwardHits)
			t["cluster.fallbacks"] += float64(cl.Fallbacks)
			if tr := cl.Transport; tr != nil {
				t["cluster.frames_sent"] += float64(tr.FramesSent)
				t["cluster.batches_sent"] += float64(tr.BatchesSent)
				t["cluster.batched_gets"] += float64(tr.BatchedGets)
				t["cluster.http_fallbacks"] += float64(tr.HTTPFallbacks)
			}
		}

		var snap obs.Snapshot
		if err := getJSON(ctx, ch.url()+"/cluster/obs", &snap); err != nil {
			return nil, err
		}
		for path, h := range snap.Request {
			c.addHist("obs.request."+path, h)
		}
		for key, h := range snap.Stage {
			// Keys are "stage/outcome"; the outcomes of a stage are summed.
			stage, _, _ := strings.Cut(key, "/")
			c.addHist("obs.stage."+stage, h)
		}
	}
	return c, nil
}

func (c *counters) addHist(name string, h *obs.HistData) {
	c.total[name+".ns"] += float64(h.Sum)
	c.total[name+".n"] += float64(h.Count())
}

// since returns the counters of the interval from before to c: totals
// differenced, gauges as c read them.
func (c *counters) since(before *counters) *counters {
	d := newCounters()
	for k, v := range c.total {
		d.total[k] = v - before.total[k]
	}
	for k, v := range c.gauge {
		d.gauge[k] = v
	}
	return d
}

// add folds another interval into c: totals add up, gauges take the
// later reading.
func (c *counters) add(o *counters) {
	for k, v := range o.total {
		c.total[k] += v
	}
	for k, v := range o.gauge {
		c.gauge[k] = v
	}
}
