package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/epoch"
	"repro/internal/qcache"
	"repro/internal/resilience"
)

// handleMetrics serves the /api/stats counters in the Prometheus text
// exposition format (text/plain; version=0.0.4) so standard scrapers can
// watch cache and dense-index hit rates without a client for the JSON API.
// Counters are cumulative since process start; gauges describe current
// residency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.sources))
	for name := range s.sources {
		names = append(names, name)
	}
	sort.Strings(names)

	// One consistent snapshot per source; every metric row reads from it.
	denseStats := make(map[string]dense.Stats, len(names))
	cacheStats := make(map[string]qcache.Stats)
	epochSeqs := make(map[string]uint64, len(names))
	probeStats := make(map[string]epoch.ProbeStats, len(names))
	resStats := make(map[string]resilience.Stats, len(names))
	resStates := make(map[string]resilience.State, len(names))
	for _, name := range names {
		src := s.sources[name]
		denseStats[name] = src.ix.Stats()
		if src.cache != nil {
			cacheStats[name] = src.cache.Stats()
		}
		epochSeqs[name] = s.epochs.Seq(name)
		if p, ok := s.probers[name]; ok {
			probeStats[name] = p.Stats()
		}
		if src.res != nil {
			resStats[name] = src.res.Stats()
			resStates[name] = src.res.State()
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# HELP qr2_sessions Live user sessions.\n# TYPE qr2_sessions gauge\nqr2_sessions %d\n", s.sessions.Len())
	if s.pool != nil {
		ps := s.pool.Stats()
		fmt.Fprintf(&b, "# HELP qr2_qcache_pool_limit_bytes Global byte budget of the answer-cache pool.\n# TYPE qr2_qcache_pool_limit_bytes gauge\nqr2_qcache_pool_limit_bytes %d\n", ps.Limit)
		fmt.Fprintf(&b, "# HELP qr2_qcache_pool_bytes Bytes resident across all pool namespaces.\n# TYPE qr2_qcache_pool_bytes gauge\nqr2_qcache_pool_bytes %d\n", ps.Bytes)
		fmt.Fprintf(&b, "# HELP qr2_qcache_pool_evictions_total Pool-wide entries evicted for the global byte budget.\n# TYPE qr2_qcache_pool_evictions_total counter\nqr2_qcache_pool_evictions_total %d\n", ps.Evictions)
	}

	if s.node != nil {
		cs := s.node.Stats()
		fmt.Fprintf(&b, "# HELP qr2_cluster_peer_alive Ring membership: 1 when the peer answers health probes (self is always 1).\n# TYPE qr2_cluster_peer_alive gauge\n")
		for _, p := range cs.Peers {
			alive := 0
			if p.Alive {
				alive = 1
			}
			fmt.Fprintf(&b, "qr2_cluster_peer_alive{peer=\"%s\"} %d\n", escapeLabel(p.ID), alive)
		}
		for _, cr := range []struct {
			metric, help string
			value        int64
		}{
			{"qr2_cluster_owned_local_total", "Searches whose key this replica owns, served through the local pool.", cs.OwnedLocal},
			{"qr2_cluster_peer_stale_puts_total", "Peer admissions rejected for carrying an older source epoch than this replica serves under.", cs.PeerStalePuts},
			{"qr2_cluster_epoch_adopts_total", "Higher source epochs adopted from peers (each adoption wiped the affected namespace).", cs.EpochAdopts},
			{"qr2_cluster_rehomed_total", "Stray entries pushed back to their recovered owner and released locally.", cs.Rehomed},
			{"qr2_cluster_local_hits_total", "Foreign-owned searches served from local residency (crawl sets, fallback entries).", cs.LocalHits},
			{"qr2_cluster_forwards_total", "Cache lookups proxied to owner replicas.", cs.Forwards},
			{"qr2_cluster_forward_hits_total", "Proxied lookups the owner answered — zero web-database queries.", cs.ForwardHits},
			{"qr2_cluster_forward_misses_total", "Proxied lookups the owner lacked; this replica paid the web query and pushed the answer.", cs.ForwardMisses},
			{"qr2_cluster_fallbacks_total", "Failed forwards served entirely through the local pool (owner marked dead).", cs.Fallbacks},
			{"qr2_cluster_coalesced_total", "Foreign-owned searches that joined an identical in-flight forward.", cs.Coalesced},
			{"qr2_cluster_admits_sent_total", "Locally computed answers pushed to their owner replicas.", cs.AdmitsSent},
			{"qr2_cluster_admit_errors_total", "Answer pushes that failed (lost admissions cost a repeated query, never correctness).", cs.AdmitErrors},
			{"qr2_cluster_peer_gets_total", "Peer lookups this replica served.", cs.PeerGets},
			{"qr2_cluster_peer_get_hits_total", "Peer lookups answered from this replica's residency.", cs.PeerGetHits},
			{"qr2_cluster_peer_puts_total", "Peer answer admissions this replica accepted.", cs.PeerPuts},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s{self=\"%s\"} %d\n",
				cr.metric, cr.help, cr.metric, cr.metric, escapeLabel(cs.Self), cr.value)
		}
		fmt.Fprintf(&b, "# HELP qr2_cluster_strays Tracked fallback-admitted entries awaiting re-homing to their recovered owner.\n# TYPE qr2_cluster_strays gauge\nqr2_cluster_strays{self=\"%s\"} %d\n",
			escapeLabel(cs.Self), cs.Strays)

		// Peer transport: the qr2_peer_* families.
		if ts := cs.Transport; ts != nil {
			self := escapeLabel(cs.Self)
			for _, cr := range []struct {
				metric, help string
				value        int64
			}{
				{"qr2_peer_frames_sent_total", "Peer protocol v2 frames written (both roles: RPCs issued plus server answers).", ts.FramesSent},
				{"qr2_peer_frames_recv_total", "Peer protocol v2 frames read (both roles: responses received plus server requests).", ts.FramesRecv},
				{"qr2_peer_batches_sent_total", "opBatchGet frames sent (two or more lookups coalesced into one frame).", ts.BatchesSent},
				{"qr2_peer_batched_gets_total", "Forwarded lookups that travelled inside a batch frame.", ts.BatchedGets},
				{"qr2_peer_v2_dials_total", "Persistent v2 connection dials attempted.", ts.V2Dials},
				{"qr2_peer_v2_dial_fails_total", "Persistent v2 connection dials that failed (refused connect, non-101 upgrade answer, bad hello).", ts.V2DialFails},
			} {
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s{self=\"%s\"} %d\n",
					cr.metric, cr.help, cr.metric, cr.metric, self, cr.value)
			}
			fmt.Fprintf(&b, "# HELP qr2_peer_batch_occupancy Lookups per flushed v2 lookup frame (batch occupancy).\n# TYPE qr2_peer_batch_occupancy histogram\n")
			var cum, weighted int64
			for i, n := range ts.BatchOccupancy {
				cum += n
				if i < len(cluster.OccupancyBounds)-1 {
					// Upper bound × count approximates the sum; exact
					// enough for occupancy ratios.
					var ub int64
					fmt.Sscan(cluster.OccupancyBounds[i], &ub)
					weighted += ub * n
				}
				fmt.Fprintf(&b, "qr2_peer_batch_occupancy_bucket{self=\"%s\",le=\"%s\"} %d\n",
					self, cluster.OccupancyBounds[i], cum)
			}
			fmt.Fprintf(&b, "qr2_peer_batch_occupancy_sum{self=\"%s\"} %d\n", self, weighted)
			fmt.Fprintf(&b, "qr2_peer_batch_occupancy_count{self=\"%s\"} %d\n", self, cum)
			fmt.Fprintf(&b, "# HELP qr2_peer_conns Live pooled v2 connections per peer.\n# TYPE qr2_peer_conns gauge\n")
			for _, p := range ts.Peers {
				fmt.Fprintf(&b, "qr2_peer_conns{self=\"%s\",peer=\"%s\"} %d\n", self, escapeLabel(p.ID), p.Conns)
			}
		}
	}

	type row struct {
		metric, kind, help string
		value              func(name string) (int64, bool)
	}
	denseRow := func(get func(dense.Stats) int64) func(string) (int64, bool) {
		return func(name string) (int64, bool) { return get(denseStats[name]), true }
	}
	cacheRow := func(get func(qcache.Stats) int64) func(string) (int64, bool) {
		return func(name string) (int64, bool) {
			cs, ok := cacheStats[name]
			if !ok {
				return 0, false
			}
			return get(cs), true
		}
	}
	epochRow := func(get func(epoch.ProbeStats) int64) func(string) (int64, bool) {
		return func(name string) (int64, bool) {
			ps, ok := probeStats[name]
			if !ok {
				return 0, false
			}
			return get(ps), true
		}
	}
	resRow := func(get func(resilience.Stats) int64) func(string) (int64, bool) {
		return func(name string) (int64, bool) {
			rs, ok := resStats[name]
			if !ok {
				return 0, false
			}
			return get(rs), true
		}
	}
	rows := []row{
		{"qr2_source_epoch", "gauge", "Current source epoch seq (bumps when the live database visibly changes).",
			func(name string) (int64, bool) { return int64(epochSeqs[name]), true }},
		{"qr2_change_probes_total", "counter", "Change-detection probe rounds (sentinel-query replays) completed.",
			epochRow(func(ps epoch.ProbeStats) int64 { return ps.Probes })},
		{"qr2_change_probe_mismatches_total", "counter", "Probe rounds that detected a source change and bumped the epoch.",
			epochRow(func(ps epoch.ProbeStats) int64 { return ps.Mismatches })},
		{"qr2_change_probe_errors_total", "counter", "Probe rounds aborted by a failed sentinel query (no bump).",
			epochRow(func(ps epoch.ProbeStats) int64 { return ps.Errors })},
		{"qr2_change_probes_paused_total", "counter", "Probe rounds paused because the source was unavailable (open breaker, degraded answer).",
			epochRow(func(ps epoch.ProbeStats) int64 { return ps.Paused })},
		{"qr2_source_breaker_state", "gauge", "Circuit-breaker position per source: 0 closed, 1 open, 2 half-open.",
			func(name string) (int64, bool) {
				if _, ok := resStats[name]; !ok {
					return 0, false
				}
				return int64(resStates[name]), true
			}},
		{"qr2_source_breaker_opens_total", "counter", "Closed-to-open breaker transitions (consecutive-failure threshold reached).",
			resRow(func(rs resilience.Stats) int64 { return rs.Opens })},
		{"qr2_source_breaker_half_opens_total", "counter", "Open-to-half-open breaker transitions (probe window elapsed).",
			resRow(func(rs resilience.Stats) int64 { return rs.HalfOpens })},
		{"qr2_source_breaker_closes_total", "counter", "Half-open-to-closed breaker transitions (probe succeeded).",
			resRow(func(rs resilience.Stats) int64 { return rs.Closes })},
		{"qr2_source_attempts_total", "counter", "Individual web-database attempts issued through the resilience layer.",
			resRow(func(rs resilience.Stats) int64 { return rs.Attempts })},
		{"qr2_source_retries_total", "counter", "Attempts beyond the first (transport-level failures replayed with backoff).",
			resRow(func(rs resilience.Stats) int64 { return rs.Retries })},
		{"qr2_source_failures_total", "counter", "Indictable (transport-level) attempt failures.",
			resRow(func(rs resilience.Stats) int64 { return rs.Failures })},
		{"qr2_source_short_circuits_total", "counter", "Calls rejected without an attempt because the breaker was open.",
			resRow(func(rs resilience.Stats) int64 { return rs.ShortCircuits })},
		{"qr2_degraded_serves_total", "counter", "Answers fabricated (empty, Degraded-marked) while the source was unreachable.",
			resRow(func(rs resilience.Stats) int64 { return rs.DegradedServes })},
		{"qr2_qcache_epoch_wipes_total", "counter", "Runtime epoch bumps that wiped the source's answer-cache namespace in full.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.EpochWipes })},
		{"qr2_qcache_partial_wipes_total", "counter", "Region-scoped epoch bumps that wiped only the intersecting slice of the namespace.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.PartialWipes })},
		{"qr2_qcache_wipe_dropped_entries_total", "counter", "Entries and crawl sets dropped by region-scoped wipes (they intersected the bumped rect).",
			cacheRow(func(cs qcache.Stats) int64 { return cs.WipeDropped })},
		{"qr2_qcache_wipe_retained_total", "counter", "Entries and crawl sets retained through region-scoped wipes (disjoint from the bumped rect).",
			cacheRow(func(cs qcache.Stats) int64 { return cs.WipeRetained })},
		{"qr2_dense_wipes_total", "counter", "Whole-index invalidations of the dense-region index (unscoped epoch bumps).",
			denseRow(func(ds dense.Stats) int64 { return ds.Wipes })},
		{"qr2_dense_region_wipes_total", "counter", "Region-scoped invalidations that evicted only intersecting dense entries.",
			denseRow(func(ds dense.Stats) int64 { return ds.RegionWipes })},
		{"qr2_dense_hits_total", "counter", "Dense-index lookups answered by a covering entry.",
			denseRow(func(ds dense.Stats) int64 { return ds.Hits })},
		{"qr2_dense_misses_total", "counter", "Dense-index lookups with no covering entry.",
			denseRow(func(ds dense.Stats) int64 { return ds.Misses })},
		{"qr2_dense_entries", "gauge", "Crawled regions in the dense index.",
			denseRow(func(ds dense.Stats) int64 { return int64(ds.Entries) })},
		{"qr2_dense_tuples", "gauge", "Tuples materialised across dense entries.",
			denseRow(func(ds dense.Stats) int64 { return int64(ds.TuplesStored) })},
		{"qr2_dense_resident_entries", "gauge", "Dense entries with decoded tuples resident in memory.",
			denseRow(func(ds dense.Stats) int64 { return int64(ds.ResidentEntries) })},
		{"qr2_dense_resident_bytes", "gauge", "Bytes of decoded dense tuples resident in memory.",
			denseRow(func(ds dense.Stats) int64 { return ds.ResidentBytes })},
		{"qr2_dense_resident_loads_total", "counter", "Store loads forced by dense residency misses.",
			denseRow(func(ds dense.Stats) int64 { return ds.ResidentLoads })},
		{"qr2_dense_resident_evictions_total", "counter", "Dense entries evicted to respect the residency budget.",
			denseRow(func(ds dense.Stats) int64 { return ds.ResidentEvictions })},
		{"qr2_qcache_hits_total", "counter", "Answer-cache exact hits.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.Hits })},
		{"qr2_qcache_containment_hits_total", "counter", "Answer-cache overflow-aware (containment) hits.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.ContainmentHits })},
		{"qr2_qcache_crawl_hits_total", "counter", "Answer-cache hits served from crawl-admitted region sets.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.CrawlHits })},
		{"qr2_qcache_misses_total", "counter", "Answer-cache misses that queried the web database.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.Misses })},
		{"qr2_qcache_coalesced_total", "counter", "Searches coalesced into an identical in-flight search.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.Coalesced })},
		{"qr2_qcache_evictions_total", "counter", "Answer-cache entries evicted for the byte budget.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.Evictions })},
		{"qr2_qcache_entries", "gauge", "Resident answer-cache entries.",
			cacheRow(func(cs qcache.Stats) int64 { return int64(cs.Entries) })},
		{"qr2_qcache_complete_entries", "gauge", "Complete answers available for containment reuse.",
			cacheRow(func(cs qcache.Stats) int64 { return int64(cs.CompleteEntries) })},
		{"qr2_qcache_crawl_entries", "gauge", "Crawl-admitted region match sets available for reuse.",
			cacheRow(func(cs qcache.Stats) int64 { return int64(cs.CrawlEntries) })},
		{"qr2_qcache_bytes", "gauge", "Bytes resident in the answer cache.",
			cacheRow(func(cs qcache.Stats) int64 { return cs.Bytes })},
	}
	for _, rw := range rows {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", rw.metric, rw.help, rw.metric, rw.kind)
		for _, name := range names {
			if v, ok := rw.value(name); ok {
				fmt.Fprintf(&b, "%s{source=\"%s\"} %d\n", rw.metric, escapeLabel(name), v)
			}
		}
	}

	// Per-stage and per-path latency histograms (_bucket/_sum/_count
	// families) from the request tracer; no-op with tracing disabled.
	s.obsC.WriteMetrics(&b)

	// Fleet roll-up (qr2_fleet_*) and SLO burn rates (qr2_slo_*); a
	// standalone replica reports a fleet of one.
	s.writeFleetMetrics(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// escapeLabel escapes a label value for the Prometheus text exposition
// format, which demands exactly three escapes — backslash, double quote
// and newline — and takes every other byte, including non-ASCII UTF-8,
// verbatim. Go's %q is not usable here: it emits \uXXXX sequences for
// non-ASCII runes, which scrapers reject as malformed.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
