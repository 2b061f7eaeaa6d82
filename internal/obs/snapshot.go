package obs

import (
	"fmt"
	"io"
	"time"
)

// HistData is the wire form of one histogram: raw per-bucket counts plus
// the nanosecond sum. Every replica buckets with the identical
// power-of-two bounds, so histograms merge exactly — elementwise adds —
// and fleet quantiles computed from a merged HistData equal the
// quantiles a single collector would have reported over the union
// stream.
type HistData struct {
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
}

// histData snapshots a live histogram into its wire form.
func histData(h *Histogram) *HistData {
	counts, sum := h.snapshot()
	return &HistData{Counts: counts[:], Sum: sum}
}

// Clone deep-copies the data (nil-safe).
func (h *HistData) Clone() *HistData {
	if h == nil {
		return nil
	}
	return &HistData{Counts: append([]uint64(nil), h.Counts...), Sum: h.Sum}
}

// Merge adds o into h elementwise. A bucket-count mismatch (a corrupt or
// version-skewed peer) is an error and leaves h unchanged.
func (h *HistData) Merge(o *HistData) error {
	if o == nil {
		return nil
	}
	if len(h.Counts) == 0 {
		h.Counts = make([]uint64, len(o.Counts))
	}
	if len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merging %d-bucket histogram into %d buckets", len(o.Counts), len(h.Counts))
	}
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
	h.Sum += o.Sum
	return nil
}

// Count returns the number of observations (nil-safe).
func (h *HistData) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	return total
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket containing it. Returns 0 when empty.
func (h *HistData) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return quantileOf(h.Counts, q)
}

// Percentiles summarises one histogram for reports.
type Percentiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
	P999  float64 `json:"p999_s"`
	MeanS float64 `json:"mean_s"`
}

// Percentiles summarises the data for reports.
func (h *HistData) Percentiles() Percentiles {
	p := Percentiles{Count: h.Count()}
	if p.Count == 0 {
		return p
	}
	p.P50 = h.Quantile(0.5).Seconds()
	p.P90 = h.Quantile(0.9).Seconds()
	p.P99 = h.Quantile(0.99).Seconds()
	p.P999 = h.Quantile(0.999).Seconds()
	p.MeanS = float64(h.Sum) / 1e9 / float64(p.Count)
	return p
}

// WriteProm writes the data as Prometheus _bucket/_sum/_count rows for
// the family name with the given label pairs (no le). Counts shorter
// than NumBuckets (never produced locally, conceivable from a skewed
// peer) still emit a final +Inf bucket equal to _count.
func (h *HistData) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		var n uint64
		if i < len(h.Counts) {
			n = h.Counts[i]
		}
		cum += n
		le := "+Inf"
		if i < NumBuckets-1 {
			le = formatLe(i)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(h.Sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

// Snapshot is one replica's mergeable observability export: cumulative
// trace counters plus every non-empty stage and request histogram in
// raw-count form. GET /cluster/obs serves it; the fleet roll-up merges
// one per replica into the qr2_fleet_* families.
type Snapshot struct {
	Replica string `json:"replica,omitempty"`
	// Traces, Slow and WebQueries are the replica's cumulative completed
	// traces, slow-threshold exceedances and web-database queries.
	Traces     uint64 `json:"traces"`
	Slow       uint64 `json:"slow"`
	WebQueries uint64 `json:"web_queries"`
	// Stage maps "stage/outcome" to that pair's latency histogram;
	// Request maps decision path names to end-to-end latency histograms.
	Stage   map[string]*HistData `json:"stage,omitempty"`
	Request map[string]*HistData `json:"request,omitempty"`
}

// Snapshot exports the collector's current state as a mergeable
// snapshot attributed to replica. Nil-safe (returns an empty snapshot).
func (c *Collector) Snapshot(replica string) *Snapshot {
	s := &Snapshot{
		Replica: replica,
		Stage:   map[string]*HistData{},
		Request: map[string]*HistData{},
	}
	if c == nil {
		return s
	}
	s.Traces = c.total.Load()
	s.Slow = c.slowTotal.Load()
	s.WebQueries = c.webQueries.Load()
	for st := Stage(0); st < numStages; st++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			h := &c.stage[st][o]
			if h.Count() == 0 {
				continue
			}
			s.Stage[st.String()+"/"+o.String()] = histData(h)
		}
	}
	for p := Path(0); p < numPaths; p++ {
		h := &c.request[p]
		if h.Count() == 0 {
			continue
		}
		s.Request[p.String()] = histData(h)
	}
	return s
}

// Merge folds o into s: counters add, histograms merge elementwise.
// Mismatched histograms from o are skipped (the error is returned, the
// rest of the merge completes). Nil o is a no-op.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	s.Traces += o.Traces
	s.Slow += o.Slow
	s.WebQueries += o.WebQueries
	var firstErr error
	merge := func(dst map[string]*HistData, key string, h *HistData) map[string]*HistData {
		if dst == nil {
			dst = map[string]*HistData{}
		}
		if have, ok := dst[key]; ok {
			if err := have.Merge(h); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			dst[key] = h.Clone()
		}
		return dst
	}
	for k, h := range o.Stage {
		s.Stage = merge(s.Stage, k, h)
	}
	for k, h := range o.Request {
		s.Request = merge(s.Request, k, h)
	}
	return firstErr
}

// MergeSnapshots merges every snapshot into a fresh fleet snapshot
// (nil entries skipped).
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Stage: map[string]*HistData{}, Request: map[string]*HistData{}}
	for _, s := range snaps {
		_ = out.Merge(s)
	}
	return out
}

// RequestCount returns the observation count of one decision path's
// request histogram (nil-safe).
func (s *Snapshot) RequestCount(path string) uint64 {
	if s == nil {
		return 0
	}
	return s.Request[path].Count()
}

// StageCombined merges every outcome of one stage into a single
// histogram — latency of the stage regardless of how it ended. Returns
// an empty HistData when the stage saw no traffic.
func (s *Snapshot) StageCombined(stage string) *HistData {
	out := &HistData{}
	if s == nil {
		return out
	}
	prefix := stage + "/"
	for k, h := range s.Stage {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			_ = out.Merge(h)
		}
	}
	return out
}
