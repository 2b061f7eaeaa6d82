// Package region provides axis-parallel hyper-rectangles over a subset of a
// schema's numeric attributes.
//
// The reranking algorithms in internal/core explore the space spanned by the
// user's ranking attributes by maintaining worklists of rectangles: the
// rank-contour of the best-known tuple prunes rectangles, overflowing
// rectangles split, and underflowing rectangles become fully enumerated
// regions. The dense-region index stores crawled rectangles and answers
// containment probes.
package region

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Rect is an axis-parallel box over a set of attributes. Attrs holds schema
// positions in strictly increasing order; Ivs is aligned with Attrs. The
// rectangle leaves every attribute outside Attrs unconstrained.
type Rect struct {
	Attrs []int
	Ivs   []relation.Interval
}

// New builds a rectangle. attrs must be strictly increasing and aligned
// with ivs.
func New(attrs []int, ivs []relation.Interval) (Rect, error) {
	if len(attrs) != len(ivs) {
		return Rect{}, fmt.Errorf("region: %d attrs but %d intervals", len(attrs), len(ivs))
	}
	for i := 1; i < len(attrs); i++ {
		if attrs[i] <= attrs[i-1] {
			return Rect{}, fmt.Errorf("region: attrs not strictly increasing: %v", attrs)
		}
	}
	return Rect{Attrs: append([]int(nil), attrs...), Ivs: append([]relation.Interval(nil), ivs...)}, nil
}

// MustNew is New that panics on error, for statically correct call sites.
func MustNew(attrs []int, ivs []relation.Interval) Rect {
	r, err := New(attrs, ivs)
	if err != nil {
		panic(err)
	}
	return r
}

// Dims returns the number of constrained attributes.
func (r Rect) Dims() int { return len(r.Attrs) }

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	return Rect{
		Attrs: append([]int(nil), r.Attrs...),
		Ivs:   append([]relation.Interval(nil), r.Ivs...),
	}
}

// Empty reports whether any dimension is empty.
func (r Rect) Empty() bool {
	for _, iv := range r.Ivs {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// IsPoint reports whether every dimension is a single value.
func (r Rect) IsPoint() bool {
	for _, iv := range r.Ivs {
		if !iv.IsPoint() {
			return false
		}
	}
	return len(r.Ivs) > 0
}

// interval returns the constraint on schema attribute attr, or Full.
func (r Rect) interval(attr int) (relation.Interval, bool) {
	for i, a := range r.Attrs {
		if a == attr {
			return r.Ivs[i], true
		}
	}
	return relation.Full(), false
}

// Interval returns the constraint on schema attribute attr; attributes the
// rectangle leaves unconstrained report the full interval. Spatial
// directories use it to project a query rectangle onto an index's
// attribute set.
func (r Rect) Interval(attr int) relation.Interval {
	iv, _ := r.interval(attr)
	return iv
}

// ContainsTuple reports whether the tuple lies inside the rectangle.
func (r Rect) ContainsTuple(t relation.Tuple) bool {
	for i, a := range r.Attrs {
		if !r.Ivs[i].Contains(t.Values[a]) {
			return false
		}
	}
	return true
}

// Covers reports whether every point of o lies inside r, i.e. o ⊆ r.
// A dimension constrained by r but not by o is unbounded in o, so r cannot
// cover it unless r's interval is unbounded too.
func (r Rect) Covers(o Rect) bool {
	if o.Empty() {
		return true
	}
	for i, a := range r.Attrs {
		oiv, _ := o.interval(a)
		if !r.Ivs[i].ContainsInterval(oiv) {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one point. A dimension
// only one rectangle constrains is unbounded in the other, so it never
// separates them; the rectangles are disjoint exactly when some shared (or
// one-sided) constraint leaves an empty overlap. Empty rectangles intersect
// nothing. This is the region-scoped invalidation primitive: an epoch bump
// scoped to rect must drop exactly the cached state whose region intersects
// it, so Intersects errs on neither side.
func (r Rect) Intersects(o Rect) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	for i, a := range r.Attrs {
		oiv, _ := o.interval(a)
		if r.Ivs[i].Intersect(oiv).Empty() {
			return false
		}
	}
	return true
}

// SplitAt cuts dimension dim (an index into Attrs) at mid, producing a left
// half [lo, mid] and right half (mid, hi]. The halves partition r.
func (r Rect) SplitAt(dim int, mid float64) (left, right Rect) {
	left, right = r.Clone(), r.Clone()
	l, rr := r.Ivs[dim].SplitAt(mid)
	left.Ivs[dim] = l
	right.Ivs[dim] = rr
	return left, right
}

// LinearMin returns the minimum of Σ w[i]·x[i] over the rectangle, where w
// is aligned with Attrs. For w[i] > 0 the minimum is at the low edge, for
// w[i] < 0 at the high edge. Open/closed flags are ignored: the bound is an
// infimum, which is what contour pruning needs.
func (r Rect) LinearMin(w []float64) float64 {
	var s float64
	for i, iv := range r.Ivs {
		if w[i] >= 0 {
			s += w[i] * iv.Lo
		} else {
			s += w[i] * iv.Hi
		}
	}
	return s
}

// LinearMax returns the maximum of Σ w[i]·x[i] over the rectangle.
func (r Rect) LinearMax(w []float64) float64 {
	var s float64
	for i, iv := range r.Ivs {
		if w[i] >= 0 {
			s += w[i] * iv.Hi
		} else {
			s += w[i] * iv.Lo
		}
	}
	return s
}

// Predicate extends base with the rectangle's interval constraints.
func (r Rect) Predicate(base relation.Predicate) relation.Predicate {
	p := base
	for i, a := range r.Attrs {
		p = p.WithInterval(a, r.Ivs[i])
	}
	return p
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	parts := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		parts[i] = fmt.Sprintf("a%d:%s", a, r.Ivs[i])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
