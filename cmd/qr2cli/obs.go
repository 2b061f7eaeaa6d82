package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wdbhttp"
)

// runObs implements "qr2cli obs": it pulls every replica's mergeable
// snapshot from /cluster/obs, merges them client-side into the fleet
// view, pulls the recent traces from /api/trace, and prints the fleet
// latency percentiles plus the top-N slowest stitched traces — each
// span indented by stitch depth and tagged with the replica that ran
// it — as terminal tables.
func runObs(args []string) {
	fs := flag.NewFlagSet("obs", flag.ExitOnError)
	var (
		servers = fs.String("servers", "http://localhost:8080",
			"comma-separated replica base URLs to merge")
		topN = fs.Int("n", 5, "slowest stitched traces to print")
		slow = fs.Bool("slow", true,
			"prefer the slow-query ring (falls back to recent traces when empty)")
	)
	_ = fs.Parse(args)

	urls := splitServers(*servers)
	if len(urls) == 0 {
		log.Fatal("qr2cli obs: no -servers given")
	}

	snaps := make([]*obs.Snapshot, 0, len(urls))
	for _, base := range urls {
		s, err := fetchSnapshot(base)
		if err != nil {
			log.Printf("qr2cli obs: %s: %v (skipped)", base, err)
			continue
		}
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		log.Fatal("qr2cli obs: no replica answered /cluster/obs")
	}
	fleet := obs.MergeSnapshots(snaps...)

	fmt.Printf("fleet of %d replica(s): %d traces, %d web queries, %d slow\n",
		len(snaps), fleet.Traces, fleet.WebQueries, fleet.Slow)
	if fleet.Traces > 0 {
		fmt.Printf("queries per answer: %.2f\n", float64(fleet.WebQueries)/float64(fleet.Traces))
	}
	fmt.Println()
	printPercentiles("fleet request latency by path", fleet.Request)
	fmt.Println()
	for _, s := range snaps {
		fmt.Printf("  replica %-12s traces %-8d web queries %-8d slow %d\n",
			s.Replica, s.Traces, s.WebQueries, s.Slow)
	}
	fmt.Println()
	printTransports(urls)

	traces := fetchTraces(urls, *topN, *slow)
	if len(traces) == 0 {
		fmt.Println("no traces available")
		return
	}
	fmt.Printf("top %d slowest traces:\n", len(traces))
	for _, tr := range traces {
		printTrace(tr)
	}
}

func splitServers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimRight(part, "/"))
		}
	}
	return out
}

func fetchSnapshot(base string) (*obs.Snapshot, error) {
	resp, err := http.Get(base + "/cluster/obs")
	if err != nil {
		return nil, err
	}
	// Drained, not just closed: on a non-OK status the body is never
	// read, and closing an unread body burns the keep-alive connection —
	// one fresh dial per poll.
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/cluster/obs: %s", resp.Status)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// transportDoc mirrors the cluster.transport slice of /api/stats.
type transportDoc struct {
	FramesSent     int64   `json:"frames_sent"`
	FramesRecv     int64   `json:"frames_recv"`
	BatchesSent    int64   `json:"batches_sent"`
	BatchedGets    int64   `json:"batched_gets"`
	BatchOccupancy []int64 `json:"batch_occupancy"`
	V2Dials        int64   `json:"v2_dials"`
	V2DialFails    int64   `json:"v2_dial_fails"`
	Peers          []struct {
		ID    string `json:"id"`
		Conns int    `json:"conns"`
	} `json:"peers"`
}

// printTransports renders each replica's peer-transport state (the same
// counters /metrics exports as qr2_peer_*): live connections per peer,
// frame/batch totals, and mean batch occupancy.
func printTransports(urls []string) {
	printed := false
	for _, base := range urls {
		resp, err := http.Get(base + "/api/stats")
		if err != nil {
			continue
		}
		var doc struct {
			Cluster *struct {
				Self      string        `json:"self"`
				Transport *transportDoc `json:"transport"`
			} `json:"cluster"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		wdbhttp.DrainClose(resp)
		if err != nil || doc.Cluster == nil || doc.Cluster.Transport == nil {
			continue
		}
		if !printed {
			fmt.Println("peer transport:")
			printed = true
		}
		ts := doc.Cluster.Transport
		// Mean occupancy from the histogram's bucket upper bounds.
		bounds := []int64{1, 2, 4, 8, 16, 32, 64, 128}
		var frames, gets int64
		for i, n := range ts.BatchOccupancy {
			if i < len(bounds) {
				frames += n
				gets += n * bounds[i]
			}
		}
		occ := "-"
		if frames > 0 {
			occ = fmt.Sprintf("%.1f", float64(gets)/float64(frames))
		}
		fmt.Printf("  replica %-12s frames %d/%d sent/recv  batches %d (%d gets, ~%s/frame)  dials %d (%d failed)\n",
			doc.Cluster.Self, ts.FramesSent, ts.FramesRecv, ts.BatchesSent, ts.BatchedGets, occ,
			ts.V2Dials, ts.V2DialFails)
		for _, p := range ts.Peers {
			fmt.Printf("    peer %-12s conns %d\n", p.ID, p.Conns)
		}
	}
	if printed {
		fmt.Println()
	}
}

func printPercentiles(title string, hists map[string]*obs.HistData) {
	fmt.Println(title + ":")
	if len(hists) == 0 {
		fmt.Println("  (no traffic)")
		return
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("  %-16s %8s %10s %10s %10s %10s\n", "path", "count", "p50", "p90", "p99", "mean")
	for _, k := range keys {
		p := hists[k].Percentiles()
		fmt.Printf("  %-16s %8d %10s %10s %10s %10s\n", k, p.Count,
			fmtSecs(p.P50), fmtSecs(p.P90), fmtSecs(p.P99), fmtSecs(p.MeanS))
	}
}

func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// obsTraceDoc mirrors the /api/trace document shape.
type obsTraceDoc struct {
	ID         string `json:"id"`
	Op         string `json:"op"`
	Source     string `json:"source,omitempty"`
	Path       string `json:"path"`
	WebQueries int    `json:"web_queries"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	Error      string `json:"error,omitempty"`
	Spans      []struct {
		Stage   string `json:"stage"`
		Outcome string `json:"outcome"`
		DurNS   int64  `json:"dur_ns"`
		Queries int    `json:"queries,omitempty"`
		Replica string `json:"replica,omitempty"`
		Depth   uint8  `json:"depth,omitempty"`
	} `json:"spans"`
}

// fetchTraces pulls recent traces from every replica, preferring the
// slow ring, and keeps the n slowest overall.
func fetchTraces(urls []string, n int, slowFirst bool) []obsTraceDoc {
	var all []obsTraceDoc
	for _, base := range urls {
		docs := fetchTraceRing(base, n, slowFirst)
		if len(docs) == 0 && slowFirst {
			docs = fetchTraceRing(base, n, false)
		}
		all = append(all, docs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ElapsedNS > all[j].ElapsedNS })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func fetchTraceRing(base string, n int, slow bool) []obsTraceDoc {
	q := url.Values{"n": {fmt.Sprint(n)}}
	if slow {
		q.Set("slow", "1")
	}
	resp, err := http.Get(base + "/api/trace?" + q.Encode())
	if err != nil {
		log.Printf("qr2cli obs: %s: %v (skipped)", base, err)
		return nil
	}
	defer wdbhttp.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var list struct {
		Traces []obsTraceDoc `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		log.Printf("qr2cli obs: %s: decode traces: %v (skipped)", base, err)
		return nil
	}
	return list.Traces
}

func printTrace(tr obsTraceDoc) {
	status := ""
	if tr.Error != "" {
		status = "  error=" + tr.Error
	}
	fmt.Printf("\n  %s  op=%s source=%s path=%s web_queries=%d elapsed=%s%s\n",
		tr.ID, tr.Op, tr.Source, tr.Path, tr.WebQueries,
		time.Duration(tr.ElapsedNS).Round(time.Microsecond), status)
	for _, sp := range tr.Spans {
		indent := strings.Repeat("  ", int(sp.Depth))
		at := ""
		if sp.Replica != "" {
			at = "  @" + sp.Replica
		}
		queries := ""
		if sp.Queries > 0 {
			queries = fmt.Sprintf("  queries=%d", sp.Queries)
		}
		fmt.Printf("    %s%-14s %-9s %10s%s%s\n", indent, sp.Stage, sp.Outcome,
			time.Duration(sp.DurNS).Round(time.Microsecond), queries, at)
	}
}
