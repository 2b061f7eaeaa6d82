package main

import (
	"bytes"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/ranking"
	"repro/internal/wdbhttp"
	"repro/internal/workload"
)

var testPools = sync.OnceValues(func() (*pools, error) {
	return newPools(specByName("mixed-zipf").Universe)
})

func mustPools(t *testing.T) *pools {
	t.Helper()
	p, err := testPools()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustTrace(t *testing.T, p *pools, spec *Spec, seed int64, round int, scale float64) *Trace {
	t.Helper()
	tr, err := genTrace(spec, p, seed, round, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func countRequests(steps []Step) int {
	n := 0
	for _, s := range steps {
		n += s.Requests()
	}
	return n
}

// sessionCap is session.NewManager's default bound on live sessions,
// which service.New does not override; see README.md, findings.
const sessionCap = 10000

func TestTracesAreDeterministic(t *testing.T) {
	// Two independently built pools: the frozen forms must not depend on
	// anything but the constants in gen.go.
	p1 := mustPools(t)
	p2, err := newPools(specByName("mixed-zipf").Universe)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		a := mustTrace(t, p1, spec, 42, 1, 1).Bytes()
		b := mustTrace(t, p2, spec, 42, 1, 1).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different traces", spec.Name)
		}
		if c := mustTrace(t, p1, spec, 43, 1, 1).Bytes(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same trace", spec.Name)
		}
		if c := mustTrace(t, p1, spec, 42, 2, 1).Bytes(); bytes.Equal(a, c) {
			t.Errorf("%s: rounds 1 and 2 gave the same trace", spec.Name)
		}
	}
}

func TestEveryFormParses(t *testing.T) {
	p := mustPools(t)
	for _, spec := range specs {
		for _, seed := range []int64{1, 7} {
			tr := mustTrace(t, p, spec, seed, 0, 1)
			if len(tr.Timed) == 0 || len(tr.Warm) == 0 {
				t.Fatalf("%s: empty phase (warm %d, timed %d)", spec.Name, len(tr.Warm), len(tr.Timed))
			}
			seen := map[string]bool{}
			for _, s := range append(append([]Step(nil), tr.Warm...), tr.Timed...) {
				if seen[s.Form] {
					continue
				}
				seen[s.Form] = true
				form, err := url.ParseQuery(s.Form)
				if err != nil {
					t.Fatalf("%s: %q: %v", spec.Name, s.Form, err)
				}
				cat, ok := p.cats[form.Get("source")]
				if !ok {
					t.Fatalf("%s: %q: unknown source", spec.Name, s.Form)
				}
				fn, err := ranking.Parse(form.Get("rank"))
				if err != nil {
					t.Fatalf("%s: %q: %v", spec.Name, s.Form, err)
				}
				// Validate rejects zero weights; a weight must also never print
				// as "-0".
				if strings.Contains(form.Get("rank"), "-0*") || strings.Contains(form.Get("rank"), "- 0*") {
					t.Errorf("%s: %q: a weight prints as -0", spec.Name, s.Form)
				}
				if _, err := ranking.Bind(fn, cat.Rel.Schema(), ranking.FromSchema(cat.Rel.Schema())); err != nil {
					t.Errorf("%s: %q: %v", spec.Name, s.Form, err)
				}
				// ParseFilterForm accepts numeric category codes only.
				pred, err := wdbhttp.ParseFilterForm(cat.Rel.Schema(), form)
				if err != nil {
					t.Fatalf("%s: %q: %v", spec.Name, s.Form, err)
				}
				if pred.Unsatisfiable() {
					t.Errorf("%s: %q: unsatisfiable filter", spec.Name, s.Form)
				}
			}
		}
	}
}

func TestColdExploreNeverRepeatsAForm(t *testing.T) {
	p := mustPools(t)
	spec := specByName("cold-explore")
	for round := 0; round < 8; round++ {
		tr := mustTrace(t, p, spec, 3, round, 1)
		seen := map[string]bool{}
		for _, s := range tr.Timed {
			if seen[s.Form] {
				t.Fatalf("round %d repeats %s", round, s.Form)
			}
			seen[s.Form] = true
			if s.Next != 1 {
				t.Fatalf("round %d: step with %d follow-up pages, want 1", round, s.Next)
			}
		}
		if got := countRequests(tr.Timed); got != spec.Requests {
			t.Errorf("round %d: %d timed requests, want %d", round, got, spec.Requests)
		}
	}
	// Rounds inside one pass over the pool share no form either.
	perRound := spec.Requests / 2 / len(classes)
	seen := map[string]bool{}
	for round := 0; round < coldPerClass/perRound; round++ {
		for _, s := range mustTrace(t, p, spec, 3, round, 1).Timed {
			if seen[s.Form] {
				t.Fatalf("round %d repeats a form of an earlier round: %s", round, s.Form)
			}
			seen[s.Form] = true
		}
	}
}

func TestColdPoolSpansTheCorrelationClasses(t *testing.T) {
	p := mustPools(t)
	for _, class := range classes {
		if len(p.cold[class]) != coldPerClass {
			t.Fatalf("class %s: %d forms, want %d", class, len(p.cold[class]), coldPerClass)
		}
		// Re-measure a few: the pool's class labels are measured, not assumed.
		for _, f := range p.cold[class][:10] {
			cat := p.cats[f.source]
			fn, pred, err := parseForm(cat.Rel.Schema(), f.encode())
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ranking.Bind(fn, cat.Rel.Schema(), ranking.FromSchema(cat.Rel.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			if got := workload.Classify(workload.Measure(cat, sc, pred, 500)); got != class {
				t.Errorf("%s: class %s, pooled as %s", f.encode(), got, class)
			}
		}
	}
}

func TestPopulationsStayBelowTheSessionCap(t *testing.T) {
	p := mustPools(t)
	for _, spec := range specs {
		tr := mustTrace(t, p, spec, 1, 0, 1)
		// Sessions are per replica and never swept within a round, so the
		// whole population (warm users included) must fit one replica.
		if got := tr.userSlots(); got >= sessionCap {
			t.Errorf("%s: %d users, session cap is %d", spec.Name, got, sessionCap)
		}
		for _, s := range append(append([]Step(nil), tr.Warm...), tr.Timed...) {
			if s.User < 0 || s.User >= tr.userSlots() {
				t.Fatalf("%s: user %d out of range", spec.Name, s.User)
			}
		}
	}
}

func TestHotTraceHoldsTheSameWorkEveryBlock(t *testing.T) {
	p := mustPools(t)
	spec := specByName("warm-hot")
	tr := mustTrace(t, p, spec, 5, 0, 1)
	block := 3 * len(p.hot)
	count := func(steps []Step) map[string]int {
		m := map[string]int{}
		for _, s := range steps {
			m[s.Form+"#"+string(rune('0'+s.Next))]++
		}
		return m
	}
	first := count(tr.Timed[:block])
	if len(first) != block {
		t.Fatalf("first block has %d distinct (form, pages) pairs, want %d", len(first), block)
	}
	for i := block; i+block <= len(tr.Timed); i += block {
		got := count(tr.Timed[i : i+block])
		for k, n := range first {
			if got[k] != n {
				t.Fatalf("block at %d differs from the first on %s", i, k)
			}
		}
	}
	// The warm phase ends with the timed trace replayed by twin users.
	twins := tr.Warm[len(tr.Warm)-len(tr.Timed):]
	for i, s := range tr.Timed {
		if twins[i].Form != s.Form || twins[i].Next != s.Next || twins[i].User == s.User {
			t.Fatalf("warm step %d is not the twin of timed step %d", i, i)
		}
	}
}

func TestUniversePairsAreStrictlyNarrower(t *testing.T) {
	p := mustPools(t)
	if len(p.universe) != specByName("mixed-zipf").Universe {
		t.Fatalf("universe has %d forms", len(p.universe))
	}
	for i := 0; i < len(p.universe); i += 2 {
		base, _ := url.ParseQuery(p.universe[i])
		narrow, _ := url.ParseQuery(p.universe[i+1])
		schema := p.cats[base.Get("source")].Rel.Schema()
		bp, err := wdbhttp.ParseFilterForm(schema, base)
		if err != nil {
			t.Fatal(err)
		}
		np, err := wdbhttp.ParseFilterForm(schema, narrow)
		if err != nil {
			t.Fatal(err)
		}
		if base.Get("rank") != narrow.Get("rank") || !bp.Covers(np) || np.Covers(bp) {
			t.Errorf("pair %d: %s is not strictly narrower than %s", i/2, p.universe[i+1], p.universe[i])
		}
	}
}

func TestOpenLoopArrivalsAreOrderedAndInsideTheHorizon(t *testing.T) {
	p := mustPools(t)
	spec := specByName("mixed-zipf")
	tr := mustTrace(t, p, spec, 9, 0, 1)
	if want := int(spec.Rate * spec.OpenSeconds); len(tr.Timed) != want {
		t.Fatalf("%d arrivals, want %d", len(tr.Timed), want)
	}
	for i, s := range tr.Timed {
		if s.Due < 0 || s.Due.Seconds() >= spec.OpenSeconds {
			t.Fatalf("arrival %d due at %v", i, s.Due)
		}
		if i > 0 && s.Due < tr.Timed[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}
