// Command qr2bench regenerates the QR2 paper's figures and demonstration
// scenarios as plain-text tables. The experiment IDs and what each one
// reproduces are listed in internal/experiments/experiments.go (and by
// qr2bench -list). Latency and throughput numbers of record come from the
// benchmark instead: see bench/README.md and BENCHMARK.json.
//
// Usage:
//
//	qr2bench                 # run every experiment at full size
//	qr2bench -run F2a,S3     # run selected experiments
//	qr2bench -quick          # small catalogs (seconds instead of minutes)
//	qr2bench -list           # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		runIDs   = flag.String("run", "all", "comma-separated experiment ids (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "use small catalogs")
		bluenile = flag.Int("bluenile", 0, "Blue Nile catalog size (0 = default)")
		zillow   = flag.Int("zillow", 0, "Zillow catalog size (0 = default)")
		systemK  = flag.Int("k", 0, "web database system-k (0 = default 50)")
		seed     = flag.Int64("seed", 0, "generator seed (0 = default 7)")
		topH     = flag.Int("top", 0, "get-next operations per measurement (0 = default 10)")
		latency  = flag.Duration("latency", 0, "simulated per-query web DB latency (0 = default 1.2s)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	runner := experiments.NewRunner(experiments.Config{
		BlueNileN:  *bluenile,
		ZillowN:    *zillow,
		SystemK:    *systemK,
		Seed:       *seed,
		TopH:       *topH,
		Quick:      *quick,
		SimLatency: *latency,
	})
	cfg := runner.Config()
	fmt.Printf("qr2bench: bluenile=%d zillow=%d system-k=%d seed=%d top-h=%d latency=%s\n\n",
		cfg.BlueNileN, cfg.ZillowN, cfg.SystemK, cfg.Seed, cfg.TopH, cfg.SimLatency)

	ids := experiments.IDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
	}
	ctx := context.Background()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		table, err := runner.Run(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qr2bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table.Format())
		fmt.Printf("(%s regenerated in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
