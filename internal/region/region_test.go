package region

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func rect2(t *testing.T) Rect {
	t.Helper()
	return MustNew([]int{0, 2}, []relation.Interval{relation.Closed(0, 10), relation.Closed(100, 200)})
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{0}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := New([]int{2, 1}, make([]relation.Interval, 2)); err == nil {
		t.Fatal("non-increasing attrs accepted")
	}
	if _, err := New([]int{1, 1}, make([]relation.Interval, 2)); err == nil {
		t.Fatal("duplicate attrs accepted")
	}
}

func TestContainsTuple(t *testing.T) {
	r := rect2(t)
	if !r.ContainsTuple(relation.Tuple{Values: []float64{5, 999, 150}}) {
		t.Fatal("inside tuple rejected (unconstrained attr must be ignored)")
	}
	if r.ContainsTuple(relation.Tuple{Values: []float64{11, 0, 150}}) {
		t.Fatal("outside tuple accepted")
	}
}

func TestCovers(t *testing.T) {
	r := rect2(t)
	inner := MustNew([]int{0, 2}, []relation.Interval{relation.Closed(2, 5), relation.Closed(150, 160)})
	if !r.Covers(inner) {
		t.Fatal("inner rect not covered")
	}
	wider := MustNew([]int{0, 2}, []relation.Interval{relation.Closed(2, 15), relation.Closed(150, 160)})
	if r.Covers(wider) {
		t.Fatal("wider rect covered")
	}
	// o constrains an extra attribute: still covered (it is narrower).
	extra := MustNew([]int{0, 1, 2}, []relation.Interval{
		relation.Closed(2, 5), relation.Closed(0, 1), relation.Closed(150, 160)})
	if !r.Covers(extra) {
		t.Fatal("narrower rect with extra constraint not covered")
	}
	// o missing a dimension r constrains: unbounded there, not covered.
	missing := MustNew([]int{0}, []relation.Interval{relation.Closed(2, 5)})
	if r.Covers(missing) {
		t.Fatal("rect unbounded on a constrained dim covered")
	}
	empty := MustNew([]int{0, 2}, []relation.Interval{relation.Closed(5, 2), relation.Closed(0, 1)})
	if !r.Covers(empty) {
		t.Fatal("empty rect must always be covered")
	}
}

func TestIntersects(t *testing.T) {
	r := rect2(t)
	overlap := MustNew([]int{0, 2}, []relation.Interval{relation.Closed(5, 15), relation.Closed(150, 250)})
	if !r.Intersects(overlap) || !overlap.Intersects(r) {
		t.Fatal("overlapping rects reported disjoint")
	}
	disjoint := MustNew([]int{0, 2}, []relation.Interval{relation.Closed(11, 20), relation.Closed(150, 160)})
	if r.Intersects(disjoint) || disjoint.Intersects(r) {
		t.Fatal("disjoint rects reported intersecting")
	}
	// A dimension only one rect constrains is unbounded in the other and
	// never separates them.
	oneDim := MustNew([]int{1}, []relation.Interval{relation.Closed(0, 1)})
	if !r.Intersects(oneDim) || !oneDim.Intersects(r) {
		t.Fatal("rects over disjoint attribute sets must intersect")
	}
	// Touching closed endpoints share exactly one point.
	touch := MustNew([]int{0}, []relation.Interval{relation.Closed(10, 20)})
	if !r.Intersects(touch) {
		t.Fatal("closed-endpoint touch reported disjoint")
	}
	// An open endpoint removes that shared point.
	openTouch := MustNew([]int{0}, []relation.Interval{relation.OpenLo(10, 20)})
	if r.Intersects(openTouch) || openTouch.Intersects(r) {
		t.Fatal("open-endpoint touch reported intersecting")
	}
	empty := MustNew([]int{0}, []relation.Interval{relation.Closed(5, 2)})
	if r.Intersects(empty) || empty.Intersects(r) {
		t.Fatal("empty rect intersects nothing")
	}
	// The zero Rect constrains nothing, so it overlaps any non-empty rect.
	if !r.Intersects(Rect{}) || !(Rect{}).Intersects(r) {
		t.Fatal("unconstrained rect must intersect everything non-empty")
	}
}

// Property: Intersects agrees with random point sampling — a sampled
// common point proves intersection, and symmetric evaluation agrees.
func TestIntersectsPointProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	mk := func() Rect {
		lo0, lo1 := rnd.Float64()*20, rnd.Float64()*20
		return MustNew([]int{0, 1}, []relation.Interval{
			relation.Closed(lo0, lo0+rnd.Float64()*10),
			relation.Closed(lo1, lo1+rnd.Float64()*10),
		})
	}
	for trial := 0; trial < 500; trial++ {
		a, b := mk(), mk()
		got := a.Intersects(b)
		if got != b.Intersects(a) {
			t.Fatalf("Intersects not symmetric for %v / %v", a, b)
		}
		// Sample points from a; any that fall inside b refute disjointness.
		common := false
		for i := 0; i < 50; i++ {
			tu := relation.Tuple{Values: []float64{
				a.Ivs[0].Lo + rnd.Float64()*a.Ivs[0].Width(),
				a.Ivs[1].Lo + rnd.Float64()*a.Ivs[1].Width(),
			}}
			if b.ContainsTuple(tu) {
				common = true
				break
			}
		}
		if common && !got {
			t.Fatalf("common point found but Intersects=false for %v / %v", a, b)
		}
	}
}

func TestSplitPartitionsTuples(t *testing.T) {
	r := rect2(t)
	left, right := r.SplitAt(0, 5)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tu := relation.Tuple{Values: []float64{rnd.Float64() * 12, 0, 100 + rnd.Float64()*110}}
		in := r.ContainsTuple(tu)
		inL, inR := left.ContainsTuple(tu), right.ContainsTuple(tu)
		if in && inL == inR {
			t.Fatalf("tuple %v: left=%v right=%v, want exactly one", tu.Values, inL, inR)
		}
		if !in && (inL || inR) {
			t.Fatalf("tuple %v outside parent inside a half", tu.Values)
		}
	}
	// Boundary value lands exactly in the left half.
	boundary := relation.Tuple{Values: []float64{5, 0, 150}}
	if !left.ContainsTuple(boundary) || right.ContainsTuple(boundary) {
		t.Fatal("split boundary must belong to the left half only")
	}
}

func TestLinearMinMax(t *testing.T) {
	r := rect2(t)
	w := []float64{2, -1}
	// min: 2*0 - 1*200 = -200 ; max: 2*10 - 1*100 = -80
	if got := r.LinearMin(w); got != -200 {
		t.Fatalf("LinearMin = %v, want -200", got)
	}
	if got := r.LinearMax(w); got != -80 {
		t.Fatalf("LinearMax = %v, want -80", got)
	}
}

// Property: LinearMin is a true lower bound of the linear function over
// random points inside the rect, and is attained at a corner.
func TestLinearMinProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		r := MustNew([]int{0, 1}, []relation.Interval{
			relation.Closed(rnd.Float64()*10, 10+rnd.Float64()*10),
			relation.Closed(rnd.Float64()*10, 10+rnd.Float64()*10),
		})
		w := []float64{rnd.Float64()*4 - 2, rnd.Float64()*4 - 2}
		lo := r.LinearMin(w)
		hi := r.LinearMax(w)
		for i := 0; i < 20; i++ {
			x := r.Ivs[0].Lo + rnd.Float64()*r.Ivs[0].Width()
			y := r.Ivs[1].Lo + rnd.Float64()*r.Ivs[1].Width()
			v := w[0]*x + w[1]*y
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("value %v outside [%v, %v]", v, lo, hi)
			}
		}
	}
}

func TestPredicate(t *testing.T) {
	r := rect2(t)
	p := r.Predicate(relation.Predicate{}.WithInterval(1, relation.Closed(0, 1)))
	if !p.Match(relation.Tuple{Values: []float64{5, 0.5, 150}}) {
		t.Fatal("matching tuple rejected")
	}
	if p.Match(relation.Tuple{Values: []float64{5, 2, 150}}) {
		t.Fatal("base predicate constraint lost")
	}
	if p.Match(relation.Tuple{Values: []float64{50, 0.5, 150}}) {
		t.Fatal("rect constraint lost")
	}
}

func TestEmptyAndPoint(t *testing.T) {
	if rect2(t).Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	e := MustNew([]int{0}, []relation.Interval{relation.OpenLo(3, 3)})
	if !e.Empty() {
		t.Fatal("empty rect not detected")
	}
	p := MustNew([]int{0, 1}, []relation.Interval{relation.Point(1), relation.Point(2)})
	if !p.IsPoint() {
		t.Fatal("point rect not detected")
	}
	if rect2(t).IsPoint() {
		t.Fatal("wide rect reported as point")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rect2(t)
	c := r.Clone()
	c.Ivs[0].Hi = 999
	if r.Ivs[0].Hi == 999 {
		t.Fatal("Clone shares interval storage")
	}
}
