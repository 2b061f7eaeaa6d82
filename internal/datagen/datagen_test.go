package datagen

import (
	"math"
	"testing"

	"repro/internal/relation"
)

func TestBlueNileShape(t *testing.T) {
	c := BlueNile(5000, 1)
	if c.Rel.Len() != 5000 {
		t.Fatalf("Len = %d", c.Rel.Len())
	}
	s := c.Rel.Schema()
	lwIdx, ok := s.Lookup("lwratio")
	if !ok {
		t.Fatal("no lwratio attribute")
	}
	ties := 0
	c.Rel.Scan(func(tu relation.Tuple) bool {
		if tu.Values[lwIdx] == 1.00 {
			ties++
		}
		return true
	})
	frac := float64(ties) / 5000
	if frac < 0.30 || frac > 0.65 {
		t.Errorf("lwratio=1.00 tie fraction = %.2f, want a substantial tie mass", frac)
	}
	// Domain sanity: every value within the declared attribute domain.
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		if a.Kind != relation.Numeric {
			continue
		}
		c.Rel.Scan(func(tu relation.Tuple) bool {
			v := tu.Values[i]
			if v < a.Min || v > a.Max {
				t.Fatalf("attr %s value %v outside [%v, %v]", a.Name, v, a.Min, a.Max)
			}
			return true
		})
	}
}

func TestBlueNileTieMassMatchesPaperWhenFiltered(t *testing.T) {
	// The paper reports ~20% of all tuples at lwratio = 1. Our generator
	// assigns 1.00 to round stones (45% of catalog) plus 8% of the rest;
	// verify there is a dominating point mass at exactly 1.00 versus any
	// other single value.
	c := BlueNile(4000, 3)
	s := c.Rel.Schema()
	lwIdx, _ := s.Lookup("lwratio")
	counts := map[float64]int{}
	c.Rel.Scan(func(tu relation.Tuple) bool {
		counts[tu.Values[lwIdx]]++
		return true
	})
	best, bestV := 0, 0.0
	for v, n := range counts {
		if n > best {
			best, bestV = n, v
		}
	}
	if bestV != 1.00 {
		t.Fatalf("largest tie group at %v, want 1.00", bestV)
	}
	if best < c.Rel.Len()/5 {
		t.Fatalf("tie group has %d tuples, want >= 20%% of %d", best, c.Rel.Len())
	}
}

func TestZillowCorrelation(t *testing.T) {
	c := Zillow(5000, 2)
	s := c.Rel.Schema()
	pIdx, _ := s.Lookup("price")
	sIdx, _ := s.Lookup("sqft")
	var xs, ys []float64
	c.Rel.Scan(func(tu relation.Tuple) bool {
		xs = append(xs, math.Log(tu.Values[pIdx]))
		ys = append(ys, math.Log(tu.Values[sIdx]))
		return true
	})
	r := pearson(xs, ys)
	if r < 0.5 {
		t.Errorf("price/sqft correlation = %.2f, want strongly positive", r)
	}
}

func TestDeterminism(t *testing.T) {
	a := BlueNile(200, 42)
	b := BlueNile(200, 42)
	for i := 0; i < a.Rel.Len(); i++ {
		ta, tb := a.Rel.Tuple(i), b.Rel.Tuple(i)
		if ta.ID != tb.ID {
			t.Fatal("IDs differ across runs with same seed")
		}
		for j := range ta.Values {
			if ta.Values[j] != tb.Values[j] {
				t.Fatalf("tuple %d attr %d differs: %v vs %v", i, j, ta.Values[j], tb.Values[j])
			}
		}
	}
	cDiff := BlueNile(200, 43)
	same := true
	for i := 0; i < a.Rel.Len() && same; i++ {
		for j, v := range a.Rel.Tuple(i).Values {
			if v != cDiff.Rel.Tuple(i).Values[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical catalogs")
	}
}

func TestSystemRankDeterministic(t *testing.T) {
	c := Zillow(100, 9)
	tu := c.Rel.Tuple(10)
	if c.Rank(tu) != c.Rank(tu) {
		t.Fatal("system rank not deterministic")
	}
	// Ranking must give distinct scores to almost all tuples.
	seen := map[float64]bool{}
	dups := 0
	c.Rel.Scan(func(tu relation.Tuple) bool {
		s := c.Rank(tu)
		if seen[s] {
			dups++
		}
		seen[s] = true
		return true
	})
	if dups > 2 {
		t.Fatalf("%d duplicate system scores in 100 tuples", dups)
	}
}

func TestUniformCatalog(t *testing.T) {
	c := Uniform(1000, 3, 5)
	if c.Rel.Schema().Len() != 3 {
		t.Fatalf("attrs = %d", c.Rel.Schema().Len())
	}
	var sum float64
	c.Rel.Scan(func(tu relation.Tuple) bool {
		for _, v := range tu.Values {
			if v < 0 || v > 1000 {
				t.Fatalf("value %v out of domain", v)
			}
			sum += v
		}
		return true
	})
	mean := sum / (1000 * 3)
	if mean < 400 || mean > 600 {
		t.Errorf("mean = %v, want near 500", mean)
	}
}

func TestTieHeavyFraction(t *testing.T) {
	c := TieHeavy(4000, 0.3, 11)
	ties := 0
	c.Rel.Scan(func(tu relation.Tuple) bool {
		if tu.Values[0] == 500 {
			ties++
		}
		return true
	})
	frac := float64(ties) / 4000
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("tie fraction = %.3f, want ~0.30", frac)
	}
}

func TestNoiseRange(t *testing.T) {
	for id := int64(0); id < 10000; id++ {
		v := noise(id)
		if v < 0 || v >= 1 {
			t.Fatalf("noise(%d) = %v out of [0,1)", id, v)
		}
	}
	if noise(1) == noise(2) {
		t.Fatal("noise constant across ids")
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	return cov / math.Sqrt(vx*vy)
}
