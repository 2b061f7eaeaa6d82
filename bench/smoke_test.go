package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at 1/20 size against the real binaries,
// traced passes and ladder included, and checks what a reader of the
// result file relies on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the server binaries")
	}
	out := t.TempDir()
	if err := runAll(context.Background(), 1, defaultSeconds, smokeScale, "..", out); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Valid || rep.Claim != nil {
		t.Errorf("valid=%v claim=%v", rep.Valid, rep.Claim)
	}
	for _, spec := range specs {
		w := rep.Workloads[spec.Name]
		if w == nil {
			t.Fatalf("%s missing from the result file", spec.Name)
		}
		if !w.Valid || w.OpsFailed != 0 || w.OpsAttempted == 0 || w.OpsOK != w.OpsAttempted {
			t.Errorf("%s: valid=%v attempted=%d ok=%d failed=%d %v", spec.Name, w.Valid, w.OpsAttempted, w.OpsOK, w.OpsFailed, w.Invalid)
		}
		for _, d := range endToEnd {
			if v, ok := w.EndToEnd[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s reads %+v", spec.Name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s reads %+v", spec.Name, d.Name, v)
			}
		}
		// The ledger's rows add up to the traced edge mean.
		edge, sum := w.PerLayer["trace.edge_mean_us"].Value, w.PerLayer["trace.ledger_sum_us"].Value
		if edge <= 0 || math.Abs(sum-edge) > 0.02*edge {
			t.Errorf("%s: ledger sums to %.1f µs, traced edge mean is %.1f µs", spec.Name, sum, edge)
		}
		if spec.ZeroWeb && w.PerLayer["wdb.queries_per_answer"].Value != 0 {
			t.Errorf("%s: %v web queries per answer, want none", spec.Name, w.PerLayer["wdb.queries_per_answer"].Value)
		}
		if (w.SLORateRPS != nil) != spec.Open {
			t.Errorf("%s: slo_rate_rps present=%v, open loop=%v", spec.Name, w.SLORateRPS != nil, spec.Open)
		}
		checkSpanFile(t, filepath.Join(out, spec.Name+".spans.jsonl"))
	}
	if got := rep.Workloads["ring-forward"].PerLayer["cluster.forwards_per_req"].Value; got <= 0 {
		t.Errorf("ring-forward forwards %v lookups per request", got)
	}
	if got := rep.Workloads["warm-hot"].PerLayer["cluster.forwards_per_req"].Value; got != 0 {
		t.Errorf("warm-hot forwards %v lookups per request", got)
	}
}

// checkSpanFile reads a span file back: both passes present, every span
// well formed.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	passes := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if s.Req <= 0 || s.Name == "" || s.EndNs < s.StartNs {
			t.Errorf("%s: malformed span %+v", path, s)
			return
		}
		passes[s.Pass]++
	}
	if passes["http"] == 0 || passes["engine"] == 0 {
		t.Errorf("%s: spans per pass %v", path, passes)
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the definitions in spec.go and ledger.go; regenerate it with: go run . -benchmark-json > ../BENCHMARK.json")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}
