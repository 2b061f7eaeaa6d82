package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// tailReport is the highest tail percentile a latency series has the
// samples for, by the rule "at least ten samples beyond it".
type tailReport struct {
	Samples    int     `json:"samples"`
	MedianMs   float64 `json:"median_ms"`
	Percentile string  `json:"percentile,omitempty"`
	ValueMs    float64 `json:"value_ms,omitempty"`
}

func tailOf(ms []float64) tailReport {
	s := sortedCopy(ms)
	t := tailReport{Samples: len(s), MedianMs: percentile(s, 0.5)}
	if name, q, ok := highestTail(len(s)); ok {
		t.Percentile, t.ValueMs = name, percentile(s, q)
	}
	return t
}

// workloadReport is one workload's entry in a result file.
type workloadReport struct {
	Why          string           `json:"why"`
	Valid        bool             `json:"valid"`
	Invalid      []string         `json:"invalid,omitempty"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsOK        int              `json:"ops_ok"`
	OpsFailed    int              `json:"ops_failed"`
	ErrorRate    float64          `json:"error_rate"`
	Rounds       int              `json:"rounds"`
	RoundSetupS  []float64        `json:"round_setup_s"`
	RoundTimedS  []float64        `json:"round_timed_s"`
	Query        tailReport       `json:"query_latency"`
	Next         tailReport       `json:"next_latency"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	// Ladder and SLORateRPS are reported by the open-loop workload only.
	Ladder     []ladderStep `json:"ladder,omitempty"`
	SLORateRPS *float64     `json:"slo_rate_rps,omitempty"`
}

// report is a result file: every workload of one commit on one machine.
type report struct {
	Schema  int     `json:"schema"`
	Date    string  `json:"date"`
	Commit  string  `json:"commit"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	Kernel  string  `json:"kernel"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Scale   float64 `json:"scale"`
	BuildS  float64 `json:"build_s"`
	// Claim is always null here: the change that defines a benchmark
	// claims no gain.
	Claim     *string                    `json:"claim"`
	Valid     bool                       `json:"valid"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func newReport(root string, seed int64, seconds, scale float64, build time.Duration) *report {
	r := &report{
		Schema: 1, Date: time.Now().UTC().Format(time.RFC3339), Commit: "unknown",
		Go: runtime.Version(), NProc: runtime.NumCPU(), Kernel: "unknown",
		Seed: seed, Seconds: seconds, Scale: scale, BuildS: build.Seconds(),
		Valid: true, Workloads: map[string]*workloadReport{},
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		r.Kernel = strings.TrimSpace(string(out))
	}
	// Outside a git work tree (an exported checkout) the commit stays unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
	return r
}

func (r *runResult) report() *workloadReport {
	w := &workloadReport{Why: r.spec.Why, Rounds: len(r.rounds), EndToEnd: r.endToEndMetrics()}
	w.OpsAttempted, w.OpsFailed = r.attempted()
	w.OpsOK = w.OpsAttempted - w.OpsFailed
	w.ErrorRate = ratio(float64(w.OpsFailed), float64(w.OpsAttempted))
	w.Invalid = r.invalid()
	w.Valid = len(w.Invalid) == 0
	var query, next []float64
	for _, rd := range r.rounds {
		w.RoundSetupS = append(w.RoundSetupS, rd.setup.Seconds())
		w.RoundTimedS = append(w.RoundTimedS, rd.timed.wall.Seconds())
		query = append(query, rd.timed.queryMs...)
		next = append(next, rd.timed.nextMs...)
	}
	w.Query, w.Next = tailOf(query), tailOf(next)
	return w
}

func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printMetrics writes one "name value unit" line per metric, in defs'
// order.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
}

// print writes the human-readable ledger of one workload.
func (w *workloadReport) print(out io.Writer, name string) {
	fmt.Fprintf(out, "\n== %s  (valid=%v, %d rounds, ops attempted %d ok %d failed %d, error_rate %g)\n",
		name, w.Valid, w.Rounds, w.OpsAttempted, w.OpsOK, w.OpsFailed, w.ErrorRate)
	for _, why := range w.Invalid {
		fmt.Fprintf(out, "  INVALID: %s\n", why)
	}
	fmt.Fprintf(out, "  rounds: set-up %.2f s, timed phase %.2f s\n", w.RoundSetupS, w.RoundTimedS)
	fmt.Fprintf(out, " end to end\n")
	printMetrics(out, endToEnd, w.EndToEnd)
	for _, t := range []struct {
		kind string
		r    tailReport
	}{{"/api/query", w.Query}, {"/api/next", w.Next}} {
		fmt.Fprintf(out, "  %-34s median %.4f ms, %s %.4f ms over %d samples\n", t.kind+" latency", t.r.MedianMs, t.r.Percentile, t.r.ValueMs, t.r.Samples)
	}
	if w.SLORateRPS != nil {
		fmt.Fprintf(out, "  %-34s %14.4f 1/s\n", "slo_rate_rps", *w.SLORateRPS)
		for _, s := range w.Ladder {
			fmt.Fprintf(out, "    ladder %7.1f req/s: goodput %7.1f, query p90 %8.2f ms over %d, failed %d, backlog mid %d end %d, within limit %v\n",
				s.RateRPS, s.GoodputRPS, s.P90Ms, s.Samples, s.Failed, s.BacklogMid, s.BacklogEnd, s.WithinLimit)
		}
	}
	if w.PerLayer != nil {
		fmt.Fprintf(out, " per layer\n")
		printMetrics(out, perLayer, w.PerLayer)
	}
}

// compareReports prints, per workload, each end-to-end metric's relative
// difference between two result files against its bound, and reports
// whether every pair agrees: b no worse than a, and a no worse than b,
// by more than the bound. Two runs of one commit must agree.
func compareReports(out io.Writer, pathA, pathB string) (bool, error) {
	var a, b report
	for _, f := range []struct {
		path string
		into *report
	}{{pathA, &a}, {pathB, &b}} {
		buf, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(buf, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	agree := true
	for _, spec := range specs {
		wa, wb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%s: missing from one file\n", spec.Name)
			agree = false
			continue
		}
		fmt.Fprintf(out, "%s\n", spec.Name)
		if !wa.Valid || !wb.Valid {
			fmt.Fprintf(out, "  a result is marked invalid\n")
			agree = false
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			diff := relDiff(va, vb)
			verdict := "agree"
			if diff > d.Bound || diff < -d.Bound {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Fprintf(out, "  %-24s a %12.4f  b %12.4f  %+7.2f%%  bound %4.0f%%  %s\n", d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return agree, nil
}

// relDiff is (b − a) ÷ a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return (b - a) / a
}
