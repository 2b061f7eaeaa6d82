package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wdbhttp"
	"repro/internal/workload"
)

// This file is the seeded trace generator. The program under test sees
// only what it produces: url-encoded /api/query forms, follow-up
// /api/next calls, user cookies and (open loop) due times. The same
// (workload, seed, round, scale) always yields byte-identical traces.
//
// What a workload asks — its catalogs and its pool of forms — is frozen
// here as part of the workload's definition; --seed decides who asks
// which form, in which order, in which round, with how many follow-up
// pages, and (open loop) when. Were the forms themselves drawn from
// --seed, a run's cost would follow the luck of the draw: one page costs
// between 4 and 400 source lookups depending on the form, so two seeds
// would differ by more than any regression bound and no run could be
// compared with another.

// Catalog fixture shared by every workload.
const (
	catalogN     = 20000
	catalogSeed  = 7 // wdbserver -seed; zillow gets catalogSeed+1 as qr2server's in-process default does
	systemK      = 50
	pageSize     = 10 // results per page of the hot forms (the service's default)
	coldPageSize = 25
	formSeed     = 11 // freezes the form pools
)

var sourceNames = []string{"bluenile", "zillow"}

// catalogFor builds the catalog a wdbserver child for source serves.
func catalogFor(source string) *datagen.Catalog {
	if source == "bluenile" {
		return datagen.BlueNile(catalogN, catalogSeed)
	}
	return datagen.Zillow(catalogN, catalogSeed+1)
}

// Step is one user action: an /api/query form followed by Next
// /api/next calls on the returned cursor. Due is the open-loop arrival
// offset from the start of the phase (zero in closed-loop traces).
type Step struct {
	User int
	Form string // url-encoded
	Next int
	Due  time.Duration
}

// Requests is the number of HTTP requests the step issues.
func (s Step) Requests() int { return 1 + s.Next }

// Trace is one round's input: an untimed warm phase and the timed
// phase. The driver partitions users over its clients by user id, so
// one user's requests never overlap and each client's sequence is fixed.
type Trace struct {
	Workload string
	Users    int
	Warm     []Step
	Timed    []Step
}

// Bytes renders the trace in a stable line form (the determinism test
// compares these; nothing parses them back).
func (t *Trace) Bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s users=%d\n", t.Workload, t.Users)
	for _, ph := range []struct {
		name  string
		steps []Step
	}{{"warm", t.Warm}, {"timed", t.Timed}} {
		for _, s := range ph.steps {
			fmt.Fprintf(&b, "%s u=%d next=%d due=%d %s\n", ph.name, s.User, s.Next, s.Due.Nanoseconds(), s.Form)
		}
	}
	return b.Bytes()
}

// userSlots is one more than the highest user id in the trace (warm
// phases may use users past the timed population).
func (t *Trace) userSlots() int {
	n := t.Users
	for _, s := range t.Warm {
		n = max(n, s.User+1)
	}
	return n
}

// numAttr is a numeric attribute with the value range most tuples fall
// in (filters drawn from it select something) and its print precision.
type numAttr struct {
	name   string
	lo, hi float64
	dec    int
}

type catAttr struct {
	name  string
	codes int
}

// sourceShape is what the generator knows about a source's search form.
type sourceShape struct {
	name string
	nums []numAttr
	cats []catAttr
	// hotRanks are the rankings of the hot form slots: 1D ascending and
	// descending plus multi-attribute (MD) expressions, the popular
	// functions of cmd/qr2server among them.
	hotRanks []string
	// rankAttrs are the attributes cold rankings draw from. lwratio and
	// beds are left out of 1D rankings: a fifth of the diamonds tie at
	// lwratio 1.00 and beds has eleven values, so a cold 1D ranking on
	// either crawls thousands of tuples and one such query would decide
	// a whole run's throughput.
	rankAttrs []string
}

var shapes = map[string]sourceShape{
	"bluenile": {
		name: "bluenile",
		nums: []numAttr{
			{"price", 300, 30000, 0}, {"carat", 0.3, 3, 2},
			{"depth", 58, 66, 1}, {"table", 52, 64, 1},
		},
		cats: []catAttr{{"cut", 5}, {"color", 8}, {"clarity", 8}, {"shape", 10}},
		hotRanks: []string{
			"price", "-price", "carat", "-carat", "depth", "-table",
			"price - 0.1*carat - 0.5*depth", "price + lwratio", "price + 0.5*carat",
			"-carat + 0.2*price", "table + 0.5*depth", "carat - 0.3*price",
		},
		rankAttrs: []string{"price", "carat", "depth", "table"},
	},
	"zillow": {
		name: "zillow",
		nums: []numAttr{
			{"price", 80000, 900000, 0}, {"sqft", 600, 5000, 0},
			{"year", 1940, 2015, 0}, {"lot", 1500, 40000, 0},
		},
		cats: []catAttr{{"zip", 25}, {"type", 4}},
		hotRanks: []string{
			"price", "-price", "sqft", "-sqft", "year", "-lot",
			"price - 0.3*sqft", "price + sqft", "price + 0.2*lot",
			"-sqft + 0.5*price", "year + 0.3*price", "lot - 0.4*year",
		},
		rankAttrs: []string{"price", "sqft", "year", "lot"},
	},
}

// gen carries one trace's random stream.
type gen struct{ rng *rand.Rand }

func newGen(spec *Spec, seed int64, round int) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(round+1)*7919 + int64(len(spec.Name))))}
}

// form is one /api/query form before encoding: a ranking plus a range
// filter on one numeric attribute and an optional membership filter on
// one categorical attribute. Category codes are numeric, as wdbhttp's
// form grammar wants them.
type form struct {
	source, rank string
	k            int // results per page
	num          numAttr
	lo, hi       float64
	cat          string
	codes        []int
}

func (f form) encode() string {
	v := url.Values{"source": {f.source}, "rank": {f.rank}, "k": {strconv.Itoa(f.k)}}
	v.Set("min."+f.num.name, strconv.FormatFloat(f.lo, 'f', f.num.dec, 64))
	v.Set("max."+f.num.name, strconv.FormatFloat(f.hi, 'f', f.num.dec, 64))
	if f.cat != "" {
		parts := make([]string, len(f.codes))
		for i, code := range f.codes {
			parts[i] = strconv.Itoa(code)
		}
		v.Set("in."+f.cat, strings.Join(parts, ","))
	}
	return v.Encode()
}

// newForm draws the filter for a ranking: a range covering 30–80 % of
// the attribute's populated range and, half the time, one to three
// category codes.
func (g *gen) newForm(sh sourceShape, rank string) form {
	f := form{source: sh.name, rank: rank, k: pageSize, num: sh.nums[g.rng.Intn(len(sh.nums))]}
	span := f.num.hi - f.num.lo
	width := span * (0.3 + 0.5*g.rng.Float64())
	f.lo = f.num.lo + (span-width)*g.rng.Float64()
	f.hi = f.lo + width
	if g.rng.Intn(2) == 0 {
		c := sh.cats[g.rng.Intn(len(sh.cats))]
		n := 1 + g.rng.Intn(3)
		if n >= c.codes {
			n = c.codes - 1
		}
		f.cat = c.name
		f.codes = g.rng.Perm(c.codes)[:n]
		sort.Ints(f.codes)
	}
	return f
}

// narrower returns f with its range filter shrunk strictly inside the
// original — the containment variant of a base form.
func (g *gen) narrower(f form) form {
	q := (f.hi - f.lo) / 4
	f.lo += q * (0.2 + 0.6*g.rng.Float64())
	f.hi -= q * (0.2 + 0.6*g.rng.Float64())
	return f
}

// coldRank draws a ranking expression: 1D ascending or descending, or a
// two/three-attribute expression with weights in ±{0.1 … 1.0}. Weights
// are never zero and never print as -0.
func (g *gen) coldRank(sh sourceShape) string {
	attrs := g.rng.Perm(len(sh.rankAttrs))
	dims := 1 + g.rng.Intn(3)
	var b strings.Builder
	for i := 0; i < dims; i++ {
		w := float64(1+g.rng.Intn(10)) / 10
		if i == 0 {
			w = 1
		}
		neg := g.rng.Intn(2) == 0
		switch {
		case i == 0 && neg:
			b.WriteString("-")
		case i > 0 && neg:
			b.WriteString(" - ")
		case i > 0:
			b.WriteString(" + ")
		}
		if w != 1 {
			b.WriteString(strconv.FormatFloat(w, 'g', -1, 64) + "*")
		}
		b.WriteString(sh.rankAttrs[attrs[i]])
	}
	return b.String()
}

// parseForm decodes an encoded form exactly as the service will.
func parseForm(schema *relation.Schema, encoded string) (ranking.Function, relation.Predicate, error) {
	v, err := url.ParseQuery(encoded)
	if err != nil {
		return ranking.Function{}, relation.Predicate{}, err
	}
	fn, err := ranking.Parse(v.Get("rank"))
	if err != nil {
		return ranking.Function{}, relation.Predicate{}, err
	}
	pred, err := wdbhttp.ParseFilterForm(schema, v)
	return fn, pred, err
}

var classes = []workload.Class{workload.Positive, workload.Independent, workload.Negative}

// pools are the frozen forms of every workload, built once per process.
type pools struct {
	cats map[string]*datagen.Catalog
	// hot are the 24 hot forms: one per ranking slot of each catalog.
	hot []string
	// cold are never-repeated (predicate, ranking) forms, one list per
	// correlation class (workload.Classify of the measured Spearman
	// correlation with the system ranking), catalogs alternating.
	cold map[workload.Class][]form
	// universe is the open-loop form universe in popularity order: each
	// base form followed by a strictly narrower variant of it, so popular
	// ranks hold both halves of a containment pair.
	universe []string
}

// coldPerClass sizes the cold pool: 240 forms per class is twelve
// cold-explore rounds without a repeat, and more than the open-loop
// universe needs.
const coldPerClass = 240

func newPools(universe int) (*pools, error) {
	p := &pools{cats: map[string]*datagen.Catalog{}, cold: map[workload.Class][]form{}}
	for _, name := range sourceNames {
		p.cats[name] = catalogFor(name)
	}
	g := &gen{rng: rand.New(rand.NewSource(formSeed))}
	for _, name := range sourceNames {
		sh := shapes[name]
		for _, rank := range sh.hotRanks {
			p.hot = append(p.hot, g.newForm(sh, rank).encode())
		}
	}
	seen := map[string]bool{}
	for _, want := range classes {
		for len(p.cold[want]) < coldPerClass {
			sh := shapes[sourceNames[len(p.cold[want])%len(sourceNames)]]
			f, err := g.coldForm(p, sh, want, seen)
			if err != nil {
				return nil, err
			}
			p.cold[want] = append(p.cold[want], f)
		}
	}
	for i := 0; len(p.universe) < universe; i++ {
		base := p.cold[classes[i%len(classes)]][i/len(classes)]
		base.k = pageSize
		p.universe = append(p.universe, base.encode(), g.narrower(base).encode())
	}
	return p, nil
}

// coldForm draws forms until one of class want turns up that was not
// drawn before.
func (g *gen) coldForm(p *pools, sh sourceShape, want workload.Class, seen map[string]bool) (form, error) {
	cat := p.cats[sh.name]
	schema := cat.Rel.Schema()
	for try := 0; try < 10000; try++ {
		f := g.newForm(sh, g.coldRank(sh))
		f.k = coldPageSize
		enc := f.encode()
		if seen[enc] {
			continue
		}
		fn, pred, err := parseForm(schema, enc)
		if err != nil {
			return form{}, err
		}
		sc, err := ranking.Bind(fn, schema, ranking.FromSchema(schema))
		if err != nil {
			return form{}, err
		}
		if workload.Classify(workload.Measure(cat, sc, pred, 500)) != want {
			continue
		}
		seen[enc] = true
		return f, nil
	}
	return form{}, fmt.Errorf("gen: no %s form found for %s", want, sh.name)
}

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1) (exponent 1.0, which
// math/rand's Zipf cannot do).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) sample(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// zipfMix is the open-loop request mix: Zipf(1.0) popularity over a
// prefix of the frozen universe. What is asked, how often and in which
// order is frozen per round — the draws come from the form seed — and
// the run's seed picks the users and places the arrivals. The order is
// frozen too because under LRU it decides which requests hit: with a
// few hundred requests a round, a seeded order made the share of
// requests served without a web query, and with it the median latency,
// a property of the shuffle (3.6 to 5.9 ms over ten seeds).
type zipfMix struct {
	forms []string
	z     zipf
	fixed *rand.Rand
}

func (p *pools) zipfMix(universe, round int) *zipfMix {
	forms := p.universe[:min(len(p.universe), universe)]
	return &zipfMix{forms: forms, z: newZipf(len(forms)), fixed: rand.New(rand.NewSource(formSeed + int64(round)))}
}

// deal draws n steps, every other one with a follow-up page.
func (m *zipfMix) deal(g *gen, n, users int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{User: g.rng.Intn(users), Form: m.forms[m.z.sample(m.fixed)], Next: i % 2}
	}
	return steps
}

// placeArrivals gives the steps due times: a fixed number of arrivals
// placed uniformly at random over the horizon, which is a Poisson
// process conditioned on its count.
func placeArrivals(g *gen, steps []Step, horizonSeconds float64) {
	dues := make([]float64, len(steps))
	for i := range dues {
		dues[i] = g.rng.Float64() * horizonSeconds
	}
	sort.Float64s(dues)
	for i := range steps {
		steps[i].Due = time.Duration(dues[i] * float64(time.Second))
	}
}

// genTrace builds round's trace of a run of spec with the given seed.
// scale shrinks request counts and populations (smoke mode); limit > 0
// caps the timed phase at that many requests (the traced pass replays a
// prefix), leaving the population alone.
func genTrace(spec *Spec, p *pools, seed int64, round int, scale float64, limit int) (*Trace, error) {
	g := newGen(spec, seed, round)
	scaled := func(n int) int { return int(math.Max(float64(spec.Clients), math.Round(float64(n)*scale))) }
	// timedRequests is how many requests the timed phase holds when the
	// spec asks for n.
	timedRequests := func(n int) int {
		if n = scaled(n); limit > 0 && limit < n {
			return limit
		}
		return n
	}
	tr := &Trace{Workload: spec.Name, Users: scaled(spec.Users)}

	switch spec.Name {
	case "warm-hot", "ring-forward":
		// Warm phase, first half: every hot form, every page, each from a
		// fresh user, so each leaf answer is resident — at its owner, on
		// the ring — before timing.
		for i, f := range p.hot {
			tr.Warm = append(tr.Warm, Step{User: tr.Users + i, Form: f, Next: 2})
		}
		// The timed trace walks seeded shuffles of all (form, follow-up
		// pages) pairs, so every block of 72 steps holds the same work.
		want := timedRequests(spec.Requests)
		for n := 0; n < want; {
			for _, i := range g.rng.Perm(3 * len(p.hot)) {
				s := Step{User: g.rng.Intn(tr.Users), Form: p.hot[i/3], Next: i % 3}
				tr.Timed = append(tr.Timed, s)
				if n += s.Requests(); n >= want {
					break
				}
			}
		}
		// Warm phase, second half. A user who has seen answers asks
		// narrower leaf questions than a fresh one, so the form pass alone
		// leaves a few web queries in the timed phase. Replaying the timed
		// trace once with twin users — same histories, other sessions —
		// makes those leaves resident too.
		twins := tr.Users + len(p.hot)
		for _, s := range tr.Timed {
			s.User += twins
			tr.Warm = append(tr.Warm, s)
		}
	case "cold-explore":
		// Warm phase: one query per source, which pays the once-per-process
		// normalisation discovery outside the timed phase.
		for i, name := range sourceNames {
			tr.Warm = append(tr.Warm, Step{User: tr.Users + i, Form: g.newForm(shapes[name], "price").encode()})
		}
		// Round r asks the r-th hand of each class's pool, whatever the seed
		// (forms that share a region share its crawl, so which forms meet in
		// a round decides the round's cost); the seed shuffles the hand and
		// picks the users. The pool wraps around for very long runs; a round
		// never repeats a form.
		perClass := timedRequests(spec.Requests) / 2 / len(classes)
		for _, class := range classes {
			pool := p.cold[class]
			for i := 0; i < perClass; i++ {
				f := pool[(round*perClass+i)%len(pool)]
				tr.Timed = append(tr.Timed, Step{User: g.rng.Intn(tr.Users), Form: f.encode(), Next: 1})
			}
		}
		g.rng.Shuffle(len(tr.Timed), func(i, j int) { tr.Timed[i], tr.Timed[j] = tr.Timed[j], tr.Timed[i] })
	case "mixed-zipf":
		z := p.zipfMix(scaled(spec.Universe), round)
		// Warm phase: a closed-loop replay of the same mix that fills the
		// cache to its budget, so LRU is already evicting when timing starts.
		// (A step is one and a half requests on average.)
		tr.Warm = z.deal(g, scaled(spec.WarmRequests)*2/3, tr.Users)
		tr.Timed = z.deal(g, timedRequests(int(math.Round(spec.Rate*spec.OpenSeconds*1.5)))*2/3, tr.Users)
		placeArrivals(g, tr.Timed, spec.OpenSeconds*scale)
	default:
		return nil, fmt.Errorf("gen: unknown workload %q", spec.Name)
	}
	return tr, nil
}
