package relation

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPredicateZeroMatchesAll(t *testing.T) {
	var p Predicate
	if !p.Match(Tuple{Values: []float64{1, 2, 3}}) {
		t.Fatal("zero predicate must match everything")
	}
	if p.Unsatisfiable() {
		t.Fatal("zero predicate is satisfiable")
	}
	if p.String() != "true" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPredicateWithIntervalIntersects(t *testing.T) {
	p := Predicate{}.WithInterval(0, Closed(0, 10)).WithInterval(0, Closed(5, 20))
	iv := p.Interval(0)
	if iv.Lo != 5 || iv.Hi != 10 {
		t.Fatalf("intersected interval = %v", iv)
	}
	// The original predicate value must be unchanged (value semantics).
	q := Predicate{}.WithInterval(0, Closed(0, 10))
	_ = q.WithInterval(0, Closed(5, 6))
	if iv := q.Interval(0); iv.Lo != 0 || iv.Hi != 10 {
		t.Fatalf("WithInterval mutated receiver: %v", iv)
	}
}

func TestPredicateIntervalUnconstrained(t *testing.T) {
	var p Predicate
	iv := p.Interval(3)
	if !iv.Contains(-1e300) || !iv.Contains(1e300) {
		t.Fatal("unconstrained attribute should report Full interval")
	}
}

func TestPredicateCategorical(t *testing.T) {
	p := Predicate{}.WithCategories(2, []int{2, 0, 2})
	if !p.Match(Tuple{Values: []float64{0, 0, 0}}) {
		t.Fatal("category 0 should match")
	}
	if p.Match(Tuple{Values: []float64{0, 0, 1}}) {
		t.Fatal("category 1 should not match")
	}
	p2 := p.WithCategories(2, []int{1, 2})
	if !p2.Match(Tuple{Values: []float64{0, 0, 2}}) || p2.Match(Tuple{Values: []float64{0, 0, 0}}) {
		t.Fatal("intersection of category sets wrong")
	}
	p3 := p2.WithCategories(2, []int{0})
	if !p3.Unsatisfiable() {
		t.Fatal("empty category set should be unsatisfiable")
	}
	// An empty list given directly is the same empty set, not a numeric
	// condition that would match category 0.
	p4 := Predicate{}.WithCategories(2, nil)
	if !p4.Unsatisfiable() || p4.Conditions()[0].Cats == nil || p4.Match(Tuple{Values: []float64{0, 0, 0}}) {
		t.Fatal("WithCategories(attr, nil) is not the empty category set")
	}
}

func TestPredicateUnsatisfiableInterval(t *testing.T) {
	p := Predicate{}.WithInterval(0, Closed(0, 10)).WithInterval(0, Closed(20, 30))
	if !p.Unsatisfiable() {
		t.Fatal("disjoint intervals should be unsatisfiable")
	}
}

func TestPredicateMultiAttribute(t *testing.T) {
	p := Predicate{}.
		WithInterval(1, Closed(1, 2)).
		WithInterval(0, Closed(100, 200)).
		WithCategories(2, []int{1})
	conds := p.Conditions()
	if len(conds) != 3 || conds[0].Attr != 0 || conds[1].Attr != 1 || conds[2].Attr != 2 {
		t.Fatalf("conditions not sorted by attr: %+v", conds)
	}
	if !p.Match(Tuple{Values: []float64{150, 1.5, 1}}) {
		t.Fatal("matching tuple rejected")
	}
	if p.Match(Tuple{Values: []float64{150, 2.5, 1}}) {
		t.Fatal("non-matching tuple accepted")
	}
}

// Property: Match of combined predicate equals conjunction of the parts.
func TestPredicateConjunctionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		ivA := Closed(r.Float64()*10, r.Float64()*10+5)
		ivB := Closed(r.Float64()*10, r.Float64()*10+5)
		cats := []int{r.Intn(3), r.Intn(3)}
		p := Predicate{}.WithInterval(0, ivA).WithInterval(1, ivB).WithCategories(2, cats)
		tu := Tuple{Values: []float64{r.Float64() * 15, r.Float64() * 15, float64(r.Intn(3))}}
		want := ivA.Contains(tu.Values[0]) && ivB.Contains(tu.Values[1]) &&
			(float64(cats[0]) == tu.Values[2] || float64(cats[1]) == tu.Values[2])
		if got := p.Match(tu); got != want {
			t.Fatalf("Match=%v want %v for %v under %v", got, want, tu, p)
		}
	}
}

func TestBuilder(t *testing.T) {
	s := testSchema(t)
	p, err := NewBuilder(s).
		Range("price", 100, 500).
		AtLeast("carat", 1).
		AtMost("carat", 3).
		In("cut", "Ideal", "Good").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !p.Match(Tuple{Values: []float64{200, 2, 2}}) {
		t.Fatal("matching tuple rejected")
	}
	if p.Match(Tuple{Values: []float64{200, 2, 0}}) {
		t.Fatal("cut=Fair should be rejected")
	}
	if p.Match(Tuple{Values: []float64{200, 0.5, 2}}) {
		t.Fatal("carat below bound accepted")
	}
}

func TestBuilderErrors(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		build func(*Builder) *Builder
		want  string
	}{
		{func(b *Builder) *Builder { return b.Range("nope", 0, 1) }, "unknown attribute"},
		{func(b *Builder) *Builder { return b.Range("cut", 0, 1) }, "not numeric"},
		{func(b *Builder) *Builder { return b.Range("price", 5, 1) }, "lo"},
		{func(b *Builder) *Builder { return b.In("price", "x") }, "not categorical"},
		{func(b *Builder) *Builder { return b.In("cut", "Shiny") }, "no category"},
		{func(b *Builder) *Builder { return b.In("nope", "x") }, "unknown attribute"},
	}
	for i, c := range cases {
		_, err := c.build(NewBuilder(s)).Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, c.want)
		}
	}
	// First error wins and later valid calls don't clear it.
	_, err := NewBuilder(s).Range("nope", 0, 1).Range("price", 0, 1).Build()
	if err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Fatalf("first error not preserved: %v", err)
	}
}

func TestPredicateDescribe(t *testing.T) {
	s := testSchema(t)
	p, err := NewBuilder(s).Range("price", 1, 2).In("cut", "Ideal").Build()
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe(s)
	if !strings.Contains(d, "price in [1, 2]") || !strings.Contains(d, "cut in {Ideal}") {
		t.Fatalf("Describe = %q", d)
	}
}

// TestPredicateCoversProperty: whenever Covers(p, q) holds, every tuple
// matching q matches p (soundness), checked on random predicates and
// tuples; plus directed cases for the structural edges.
func TestPredicateCoversProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	randPred := func() Predicate {
		var p Predicate
		for a := 0; a < 3; a++ {
			switch r.Intn(3) {
			case 0: // unconstrained
			case 1:
				lo := r.Float64()*10 - 5
				p = p.WithInterval(a, Interval{
					Lo: lo, Hi: lo + r.Float64()*6,
					LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0,
				})
			case 2:
				n := 1 + r.Intn(3)
				cats := make([]int, n)
				for i := range cats {
					cats[i] = r.Intn(5)
				}
				p = p.WithCategories(a, cats)
			}
		}
		return p
	}
	randTuple := func() Tuple {
		vals := make([]float64, 3)
		for i := range vals {
			if r.Intn(2) == 0 {
				vals[i] = float64(r.Intn(5)) // also a plausible category code
			} else {
				vals[i] = r.Float64()*12 - 6
			}
		}
		return Tuple{ID: 1, Values: vals}
	}
	covered, trials := 0, 0
	for i := 0; i < 4000; i++ {
		p, q := randPred(), randPred()
		if !p.Covers(q) {
			continue
		}
		covered++
		for j := 0; j < 20; j++ {
			trials++
			tu := randTuple()
			if q.Match(tu) && !p.Match(tu) {
				t.Fatalf("p=%v covers q=%v but tuple %v matches only q", p, q, tu)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no covering pairs generated; property vacuous")
	}
}

func TestPredicateCoversDirected(t *testing.T) {
	base := Predicate{}.WithInterval(0, Closed(0, 10))
	narrower := Predicate{}.WithInterval(0, Closed(2, 8)).WithInterval(1, Closed(0, 1))
	if !base.Covers(narrower) {
		t.Fatal("narrower predicate not covered")
	}
	if narrower.Covers(base) {
		t.Fatal("broader predicate wrongly covered")
	}
	// The empty predicate covers everything; nothing nonempty covers it
	// unless its own conditions are full.
	if !(Predicate{}).Covers(base) {
		t.Fatal("empty predicate must cover all")
	}
	if base.Covers(Predicate{}) {
		t.Fatal("constrained predicate cannot cover the empty one")
	}
	// Categorical subsets.
	cats := Predicate{}.WithCategories(0, []int{1, 2, 3})
	sub := Predicate{}.WithCategories(0, []int{2})
	if !cats.Covers(sub) || cats.Covers(Predicate{}) {
		t.Fatal("categorical containment wrong")
	}
	// An unsatisfiable query is covered by anything.
	dead := Predicate{}.WithInterval(0, OpenLo(5, 5))
	if !base.Covers(dead) {
		t.Fatal("unsatisfiable predicate must be covered")
	}
}
