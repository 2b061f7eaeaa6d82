// Command bench is the benchmark of record for the QR2 reproduction. It
// builds the real cmd/qr2server and cmd/wdbserver binaries, launches
// them as child processes on loopback, replays four named, seeded
// workloads against them and reports end-to-end metrics and a per-layer
// ledger. See README.md.
//
//	bench -workload w -seed n -seconds s -trace 0|1   one workload; last stdout line is the result
//	bench [-seed n] [-seconds s] [-smoke]             every workload, both passes, ledger + result file
//	bench -compare a.json b.json                      do two result files agree within the bounds?
//	bench -benchmark-json                             print BENCHMARK.json as the code defines it
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (warm-hot, cold-explore, mixed-zipf, ring-forward) and print its result line; empty runs them all")
		seed         = flag.Int64("seed", 1, "trace seed")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time: buys seconds ÷ (the workload's frozen round length) rounds")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics (counter deltas plus the traced in-process pass)")
		smoke        = flag.Bool("smoke", false, "run every workload at 1/20 size, traced pass included")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments; exit non-zero if any end-to-end metric differs by more than its bound")
		benchJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the definitions in spec.go and ledger.go render it, and exit")
		root         = flag.String("root", ".", "root of the source tree (holds go.mod, cmd/ and bench/)")
		out          = flag.String("out", "", "directory for child logs, span files and the result file (default <root>/bench/out)")
	)
	flag.Parse()
	if *benchJSON {
		buf, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Stdout.Write(buf)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			os.Exit(2)
		}
		agree, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !agree {
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = filepath.Join(*root, "bench", "out")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Children must not outlive the benchmark, whatever ends it.
	go func() {
		<-ctx.Done()
		stopAllFleets()
	}()
	var err error
	if *workloadName != "" {
		err = runOne(ctx, *workloadName, *seed, *seconds, *trace, *root, *out)
	} else {
		scale := 1.0
		if *smoke {
			scale = smokeScale
		}
		err = runAll(ctx, *seed, *seconds, scale, *root, *out)
	}
	stopAllFleets()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// prepare builds the binaries and the fixtures every run shares.
func prepare(ctx context.Context, root, out string, scale float64) (*env, time.Duration, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, 0, err
	}
	bins, buildTime, err := buildBinaries(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return nil, 0, err
	}
	pl, err := newPools(specByName("mixed-zipf").Universe)
	if err != nil {
		return nil, 0, err
	}
	orc, err := newOracle(ctx, pl.cats)
	if err != nil {
		return nil, 0, err
	}
	return &env{bins: bins, outDir: out, pools: pl, oracle: orc, scale: scale}, buildTime, nil
}

// resultLine is the last line of standard output of a -workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne runs one workload and prints its result line. With trace 1 the
// measuring time is split: half buys untraced rounds against the real
// binaries (for the counter deltas), the rest is the in-process passes.
func runOne(ctx context.Context, workloadName string, seed int64, seconds float64, trace int, root, out string) error {
	spec := specByName(workloadName)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", trace)
	}
	e, buildTime, err := prepare(ctx, root, out, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: build_s %.3f (reported, not a metric)\n", buildTime.Seconds())
	if trace == 1 {
		seconds /= 2
	}
	res, err := runWorkload(ctx, e, spec, seed, seconds)
	if err != nil {
		return err
	}
	rep := res.report()
	line := resultLine{Correct: rep.Valid, Attempted: rep.OpsAttempted, Failed: rep.OpsFailed, Metrics: rep.EndToEnd}
	if trace == 1 {
		t, err := runTraced(ctx, e, spec, seed)
		if err != nil {
			return err
		}
		if line.Metrics, err = perLayerMetrics(res, t); err != nil {
			return err
		}
		rep.PerLayer = line.Metrics
	}
	rep.print(os.Stderr, spec.Name)
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return fmt.Errorf("%s: outputs are not correct", spec.Name)
	}
	return nil
}

// runAll runs every workload — untraced rounds, the traced passes and,
// on the open-loop workload, the rate ladder — prints the ledger and
// writes the result file.
func runAll(ctx context.Context, seed int64, seconds, scale float64, root, out string) error {
	began := time.Now()
	e, buildTime, err := prepare(ctx, root, out, scale)
	if err != nil {
		return err
	}
	rep := newReport(root, seed, seconds, scale, buildTime)
	for _, spec := range specs {
		res, err := runWorkload(ctx, e, spec, seed, seconds*scale)
		if err != nil {
			return err
		}
		w := res.report()
		t, err := runTraced(ctx, e, spec, seed)
		if err != nil {
			return err
		}
		if w.PerLayer, err = perLayerMetrics(res, t); err != nil {
			return err
		}
		if spec.Open {
			if w.Ladder, err = runLadder(ctx, e, spec, seed); err != nil {
				return err
			}
			slo := sloRate(w.Ladder)
			w.SLORateRPS = &slo
		}
		rep.Workloads[spec.Name] = w
		rep.Valid = rep.Valid && w.Valid
		w.print(os.Stdout, spec.Name)
	}
	path := filepath.Join(out, "result.json")
	if err := writeJSONFile(path, rep); err != nil {
		return err
	}
	fmt.Printf("\nbuild_s %.3f (not a metric); everything else took %.1f s; result file %s; valid=%v\n",
		buildTime.Seconds(), time.Since(began).Seconds()-buildTime.Seconds(), path, rep.Valid)
	if !rep.Valid {
		return fmt.Errorf("a workload's outputs are not correct")
	}
	return nil
}
