// Package experiments regenerates every measurable figure and demonstration
// scenario of the QR2 paper as printable tables.
//
// Experiment IDs and the part of the paper each one reproduces:
//
//	F2a  Fig 2(a): parallel processed queries per iteration, 3D, Blue Nile
//	F2b  Fig 2(b): parallel processed queries per iteration, 2D, Blue Nile
//	F4   Fig 4: statistics panel — query cost and processing time, Zillow
//	S1   §III-B "1D": algorithms × ascending/descending × attributes
//	S2   §III-B "MD": algorithms × weight-sign combinations, 2D and 3D
//	S3   §III-B "On-the-fly indexing": amortisation over a query sequence
//	S4   §III-B "Best vs worst cases": price+LengthWidthRatio vs price+sqft
//	S5   concurrent users sharing the answer cache (internal/qcache)
//	S6   pooled answer cache: cross-source borrowing and crawl refill
//	S7   consistent-hash replica ring: shared workload, peer death/recovery
//	S8   source epochs: mid-run source mutation, cluster-wide invalidation
//	S9   source-fault resilience: stall, kill and heal a source mid-run
//	S10  region-scoped epochs: region-confined mutation, surgical invalidation
//	S11  cluster observability plane: stitched traces, fleet roll-up, SLO burn rates
//	S12  wire-speed peer protocol: three-replica ring, hot trace, mid-burst kill
//	A1   ablation: parallel vs sequential processing
//	A2   ablation: dense-region threshold sweep
//	A3   ablation: tie-group mass vs crawling cost
//	A4   ablation: the user-level session cache
//	A5   sweep: query cost vs the web database's system-k
//	A6   sweep: per-page get-next cost as a stream is drained
//
// Absolute numbers come from the synthetic catalogs in internal/datagen,
// not the 2018 live sites; the comparisons the paper makes (who wins, by
// what rough factor, where behaviour degrades) are what the tables
// reproduce. Every experiment is deterministic for a fixed Config.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hidden"
	"repro/internal/ranking"
)

// Config sizes the experiments.
type Config struct {
	// BlueNileN and ZillowN are catalog sizes (defaults 20000 and 25000;
	// Quick shrinks them).
	BlueNileN, ZillowN int
	// SystemK is the web databases' top-k limit (default 50).
	SystemK int
	// Seed drives every generator (default 7).
	Seed int64
	// TopH is how many get-next operations each measurement performs
	// (default 10 — one QR2 result page).
	TopH int
	// Quick shrinks the catalogs for use inside testing.B benchmarks.
	Quick bool
	// SimLatency is the simulated per-query web database round trip used
	// for processing-time columns (default 1.2s, calibrated to the
	// paper's 27 queries ≈ 33 s statistics panel).
	SimLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.BlueNileN <= 0 {
		c.BlueNileN = 20000
	}
	if c.ZillowN <= 0 {
		c.ZillowN = 25000
	}
	if c.Quick {
		c.BlueNileN, c.ZillowN = 4000, 5000
	}
	if c.SystemK <= 0 {
		c.SystemK = 50
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.TopH <= 0 {
		c.TopH = 10
	}
	if c.SimLatency <= 0 {
		c.SimLatency = 1200 * time.Millisecond
	}
	return c
}

// Table is one regenerated figure or scenario.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner caches the catalogs and discovered normalisations across
// experiments so that individual experiments stay comparable.
type Runner struct {
	cfg   Config
	cats  map[string]*datagen.Catalog
	norms map[string]ranking.Normalization
}

// NewRunner builds a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:   cfg.withDefaults(),
		cats:  make(map[string]*datagen.Catalog),
		norms: make(map[string]ranking.Normalization),
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	return []string{"F2a", "F2b", "F4", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "A1", "A2", "A3", "A4", "A5", "A6"}
}

// Run regenerates one experiment by ID.
func (r *Runner) Run(ctx context.Context, id string) (Table, error) {
	switch id {
	case "F2a":
		return r.Fig2(ctx, 3)
	case "F2b":
		return r.Fig2(ctx, 2)
	case "F4":
		return r.Fig4(ctx)
	case "S1":
		return r.Scenario1D(ctx)
	case "S2":
		return r.ScenarioMD(ctx)
	case "S3":
		return r.ScenarioIndexing(ctx)
	case "S4":
		return r.ScenarioBestWorst(ctx)
	case "S5":
		return r.ScenarioConcurrentUsers(ctx)
	case "S6":
		return r.ScenarioPooledCache(ctx)
	case "S7":
		return r.ScenarioClusterRing(ctx)
	case "S8":
		return r.ScenarioSourceEpochs(ctx)
	case "S9":
		return r.ScenarioResilience(ctx)
	case "S10":
		return r.ScenarioRegionEpochs(ctx)
	case "S11":
		return r.ScenarioObservabilityPlane(ctx)
	case "S12":
		return r.ScenarioWireSpeed(ctx)
	case "A1":
		return r.AblationParallel(ctx)
	case "A2":
		return r.AblationDenseThreshold(ctx)
	case "A3":
		return r.AblationTies(ctx)
	case "A4":
		return r.AblationSessionCache(ctx)
	case "A5":
		return r.SweepSystemK(ctx)
	case "A6":
		return r.SweepGetNext(ctx)
	default:
		return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// All regenerates every experiment.
func (r *Runner) All(ctx context.Context) ([]Table, error) {
	var out []Table
	for _, id := range IDs() {
		t, err := r.Run(ctx, id)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// catalog returns the cached catalog for a source name.
func (r *Runner) catalog(name string) *datagen.Catalog {
	if c, ok := r.cats[name]; ok {
		return c
	}
	var c *datagen.Catalog
	switch name {
	case "bluenile":
		c = datagen.BlueNile(r.cfg.BlueNileN, r.cfg.Seed)
	case "zillow":
		c = datagen.Zillow(r.cfg.ZillowN, r.cfg.Seed+1)
	default:
		panic("experiments: unknown catalog " + name)
	}
	r.cats[name] = c
	return c
}

// db builds a fresh hidden database over a cached catalog.
func (r *Runner) db(name string) *hidden.Local {
	cat := r.catalog(name)
	db, err := hidden.NewLocal(name, cat.Rel, r.cfg.SystemK, cat.Rank)
	if err != nil {
		panic(err) // catalogs and k are validated by construction
	}
	return db
}

// norm discovers (once per source) the interface-based normalisation.
func (r *Runner) norm(ctx context.Context, name string) (ranking.Normalization, error) {
	if n, ok := r.norms[name]; ok {
		return n, nil
	}
	probe, err := core.New(r.db(name), core.Options{})
	if err != nil {
		return ranking.Normalization{}, err
	}
	n, err := probe.Normalization(ctx)
	if err != nil {
		return ranking.Normalization{}, err
	}
	r.norms[name] = n
	return n, nil
}

// measure opens a stream with the given options and drains topH tuples,
// returning the cumulative stats.
func (r *Runner) measure(ctx context.Context, dbName string, opt core.Options, q core.Query, topH int) (core.OpStats, error) {
	norm, err := r.norm(ctx, dbName)
	if err != nil {
		return core.OpStats{}, err
	}
	opt.Normalization = &norm
	opt.SimLatency = r.cfg.SimLatency
	rr, err := core.New(r.db(dbName), opt)
	if err != nil {
		return core.OpStats{}, err
	}
	st, err := rr.Rerank(ctx, q)
	if err != nil {
		return core.OpStats{}, err
	}
	if _, err := st.NextN(ctx, topH); err != nil {
		return core.OpStats{}, err
	}
	return st.TotalStats(), nil
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func secs(d time.Duration) string { return f("%.1fs", d.Seconds()) }
