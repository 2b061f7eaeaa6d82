package ranking

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func schema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 0, Max: 1000},
		relation.Attribute{Name: "carat", Kind: relation.Numeric, Min: 0, Max: 10},
		relation.Attribute{Name: "cut", Kind: relation.Categorical, Categories: []string{"a", "b"}},
		relation.Attribute{Name: "depth", Kind: relation.Numeric, Min: 50, Max: 80},
	)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		f    Function
		want string
	}{
		{Function{}, "no terms"},
		{Function{Terms: []Term{{Attr: "", Weight: 1}}}, "empty attribute"},
		{Function{Terms: []Term{{Attr: "a", Weight: 1}, {Attr: "a", Weight: 2}}}, "duplicate"},
		{Function{Terms: []Term{{Attr: "a", Weight: 0}}}, "invalid weight"},
		{Function{Terms: []Term{{Attr: "a", Weight: math.NaN()}}}, "invalid weight"},
	}
	for _, c := range cases {
		err := c.f.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%v) = %v, want containing %q", c.f, err, c.want)
		}
	}
	ok := Function{Terms: []Term{{Attr: "a", Weight: -0.5}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid function rejected: %v", err)
	}
}

func TestAscendingDescending(t *testing.T) {
	a := Ascending("price")
	if len(a.Terms) != 1 || a.Terms[0].Weight != 1 {
		t.Fatalf("Ascending = %v", a)
	}
	d := Descending("price")
	if d.Terms[0].Weight != -1 {
		t.Fatalf("Descending = %v", d)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		expr string
		want []Term
	}{
		{"price", []Term{{"price", 1}}},
		{"-price", []Term{{"price", -1}}},
		{"price - 0.3*sqft", []Term{{"price", 1}, {"sqft", -0.3}}},
		{"price - 0.1 carat - 0.5 depth", []Term{{"price", 1}, {"carat", -0.1}, {"depth", -0.5}}},
		{"price + LengthWidthRatio", []Term{{"price", 1}, {"LengthWidthRatio", 1}}},
		{"2*price + price", []Term{{"price", 3}}},
		{"0.5 * a_1 + 0.25*a_2", []Term{{"a_1", 0.5}, {"a_2", 0.25}}},
		{"+price", []Term{{"price", 1}}},
	}
	for _, c := range cases {
		f, err := Parse(c.expr)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.expr, err)
			continue
		}
		if len(f.Terms) != len(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.expr, f.Terms, c.want)
			continue
		}
		for i := range c.want {
			if f.Terms[i].Attr != c.want[i].Attr || math.Abs(f.Terms[i].Weight-c.want[i].Weight) > 1e-12 {
				t.Errorf("Parse(%q)[%d] = %+v, want %+v", c.expr, i, f.Terms[i], c.want[i])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{
		"", "  ", "1.2", "price +", "+ - price", "price price", "0..3*x",
		"price & carat", "*price", "price - price", "3*", "price 0.3",
	} {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", expr)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, expr := range []string{
		"price", "-price", "price - 0.3*sqft", "price + 0.1*carat - 0.5*depth",
	} {
		f := MustParse(expr)
		g, err := Parse(f.String())
		if err != nil {
			t.Fatalf("round trip of %q via %q: %v", expr, f.String(), err)
		}
		if len(g.Terms) != len(f.Terms) {
			t.Fatalf("round trip changed arity: %v vs %v", f, g)
		}
		for i := range f.Terms {
			if g.Terms[i] != f.Terms[i] {
				t.Fatalf("round trip changed term %d: %+v vs %+v", i, f.Terms[i], g.Terms[i])
			}
		}
	}
}

func TestNormalization(t *testing.T) {
	s := schema(t)
	n := FromSchema(s)
	if got := n.Normalize(0, 500); got != 0.5 {
		t.Fatalf("Normalize = %v, want 0.5", got)
	}
	if got := n.Denormalize(0, 0.5); got != 500 {
		t.Fatalf("Denormalize = %v, want 500", got)
	}
	// Degenerate span normalises to 0.
	n2 := Normalization{Min: []float64{5}, Max: []float64{5}}
	if got := n2.Normalize(0, 5); got != 0 {
		t.Fatalf("degenerate Normalize = %v", got)
	}
}

// Property: Denormalize(Normalize(v)) is the identity within float error.
func TestNormalizationRoundTripProperty(t *testing.T) {
	n := Normalization{Min: []float64{100}, Max: []float64{100000}}
	f := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 99900) + 100
		back := n.Denormalize(0, n.Normalize(0, v))
		return math.Abs(back-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestBindErrors(t *testing.T) {
	s := schema(t)
	n := FromSchema(s)
	if _, err := Bind(MustParse("nope"), s, n); err == nil {
		t.Fatal("unknown attribute bound")
	}
	if _, err := Bind(MustParse("cut"), s, n); err == nil {
		t.Fatal("categorical attribute bound")
	}
	if _, err := Bind(Function{}, s, n); err == nil {
		t.Fatal("empty function bound")
	}
	if _, err := Bind(MustParse("price"), s, Normalization{Min: []float64{0}, Max: []float64{1}}); err == nil {
		t.Fatal("wrong-arity normalisation bound")
	}
}

func TestScorerScore(t *testing.T) {
	s := schema(t)
	n := FromSchema(s)
	sc, err := Bind(MustParse("price - 0.5*carat"), s, n)
	if err != nil {
		t.Fatal(err)
	}
	tu := relation.Tuple{Values: []float64{500, 5, 0, 60}}
	// norm(price)=0.5, norm(carat)=0.5 → 0.5 - 0.25 = 0.25
	if got := sc.Score(tu); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Score = %v, want 0.25", got)
	}
	if sc.Dims() != 2 {
		t.Fatalf("Dims = %d", sc.Dims())
	}
	attrs := sc.Attrs()
	if attrs[0] != 0 || attrs[1] != 1 {
		t.Fatalf("Attrs = %v (must be schema-ordered)", attrs)
	}
	if w := sc.Weights(); w[0] != 1 || w[1] != -0.5 {
		t.Fatalf("Weights = %v", w)
	}
}

func TestScorerAttrsSortedRegardlessOfTermOrder(t *testing.T) {
	s := schema(t)
	n := FromSchema(s)
	sc, err := Bind(MustParse("0.2*depth + price"), s, n)
	if err != nil {
		t.Fatal(err)
	}
	attrs := sc.Attrs()
	if attrs[0] != 0 || attrs[1] != 3 {
		t.Fatalf("Attrs = %v, want [0 3]", attrs)
	}
	if w := sc.Weights(); w[0] != 1 || w[1] != 0.2 {
		t.Fatalf("Weights = %v, want [1 0.2]", w)
	}
}

// Property: Score is monotone — increasing a positively weighted attribute
// never decreases the score; increasing a negatively weighted one never
// increases it.
func TestScorerMonotoneProperty(t *testing.T) {
	s := schema(t)
	n := FromSchema(s)
	sc, err := Bind(MustParse("price - 0.3*carat"), s, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		tu := relation.Tuple{Values: []float64{r.Float64() * 1000, r.Float64() * 10, 0, 50 + r.Float64()*30}}
		up := tu.Clone()
		up.Values[0] += r.Float64() * 100 // price up → score up
		if sc.Score(up) < sc.Score(tu)-1e-12 {
			t.Fatal("score not monotone in price")
		}
		up2 := tu.Clone()
		up2.Values[1] += r.Float64() // carat up → score down
		if sc.Score(up2) > sc.Score(tu)+1e-12 {
			t.Fatal("score not anti-monotone in carat")
		}
	}
}
