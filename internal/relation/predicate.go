package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Condition constrains a single attribute: an interval for numeric
// attributes, a membership set for categorical ones.
type Condition struct {
	// Attr is the attribute position in the schema.
	Attr int
	// Iv is the allowed interval (numeric attributes).
	Iv Interval
	// Cats is the sorted set of allowed category codes (categorical
	// attributes). A nil Cats means the condition is numeric.
	Cats []int
}

func (c Condition) isCategorical() bool { return c.Cats != nil }

func (c Condition) match(t Tuple) bool {
	v := t.Values[c.Attr]
	if c.isCategorical() {
		ci := int(v)
		i := sort.SearchInts(c.Cats, ci)
		return i < len(c.Cats) && c.Cats[i] == ci
	}
	return c.Iv.Contains(v)
}

// Predicate is a conjunction of per-attribute conditions, at most one per
// attribute. The zero Predicate matches every tuple. Predicates are values:
// the With* methods return extended copies and never mutate the receiver,
// so they are safe to share across goroutines.
type Predicate struct {
	conds []Condition // sorted by Attr
}

// Conditions returns the predicate's conditions in attribute order. The
// returned slice must not be modified.
func (p Predicate) Conditions() []Condition { return p.conds }

// find returns the position of the condition on attr, or -1.
func (p Predicate) find(attr int) int {
	for i, c := range p.conds {
		if c.Attr == attr {
			return i
		}
	}
	return -1
}

func (p Predicate) cloneConds() []Condition {
	out := make([]Condition, len(p.conds))
	copy(out, p.conds)
	return out
}

func (p Predicate) insert(c Condition) Predicate {
	conds := p.cloneConds()
	i := sort.Search(len(conds), func(i int) bool { return conds[i].Attr >= c.Attr })
	conds = append(conds, Condition{})
	copy(conds[i+1:], conds[i:])
	conds[i] = c
	return Predicate{conds: conds}
}

// WithInterval returns p further constrained so that attribute attr lies in
// iv. An existing numeric condition on attr is intersected with iv.
func (p Predicate) WithInterval(attr int, iv Interval) Predicate {
	if i := p.find(attr); i >= 0 {
		conds := p.cloneConds()
		conds[i].Iv = conds[i].Iv.Intersect(iv)
		return Predicate{conds: conds}
	}
	return p.insert(Condition{Attr: attr, Iv: iv})
}

// WithCategories returns p further constrained so that attribute attr takes
// one of the given category codes. An existing categorical condition on attr
// is intersected with the set.
func (p Predicate) WithCategories(attr int, cats []int) Predicate {
	// Never nil: an empty set is an unsatisfiable categorical condition,
	// and a nil Cats would make it a numeric one.
	set := append(make([]int, 0, len(cats)), cats...)
	sort.Ints(set)
	set = dedupInts(set)
	if i := p.find(attr); i >= 0 {
		conds := p.cloneConds()
		conds[i].Cats = intersectSortedInts(conds[i].Cats, set)
		return Predicate{conds: conds}
	}
	return p.insert(Condition{Attr: attr, Cats: set})
}

// Interval returns the numeric constraint on attr, or Full() when the
// predicate does not constrain attr.
func (p Predicate) Interval(attr int) Interval {
	if i := p.find(attr); i >= 0 && !p.conds[i].isCategorical() {
		return p.conds[i].Iv
	}
	return Full()
}

// Match reports whether the tuple satisfies every condition.
func (p Predicate) Match(t Tuple) bool {
	for _, c := range p.conds {
		if !c.match(t) {
			return false
		}
	}
	return true
}

// Covers reports whether p accepts every tuple that q accepts, i.e. q is at
// least as narrow as p on every attribute p constrains. This is the
// answer-granularity analogue of region.Rect.Covers: a complete (non
// overflowing) answer for p therefore contains every tuple any q it covers
// can match. The check is structural and sound but not complete — it never
// returns true wrongly, though exotic equivalences may be missed.
func (p Predicate) Covers(q Predicate) bool {
	if q.Unsatisfiable() {
		return true
	}
	for _, c := range p.conds {
		i := q.find(c.Attr)
		if c.isCategorical() {
			// q must restrict the attribute to a subset of p's categories;
			// an unconstrained (or numeric) condition allows codes p bans.
			if i < 0 || !q.conds[i].isCategorical() {
				return false
			}
			if !subsetSortedInts(q.conds[i].Cats, c.Cats) {
				return false
			}
			continue
		}
		qiv := Full()
		if i >= 0 {
			if q.conds[i].isCategorical() {
				return false // mixed kinds on one attribute: give up soundly
			}
			qiv = q.conds[i].Iv
		}
		if !c.Iv.ContainsInterval(qiv) {
			return false
		}
	}
	return true
}

// Unsatisfiable reports whether some condition can never hold (an empty
// interval or an empty category set).
func (p Predicate) Unsatisfiable() bool {
	for _, c := range p.conds {
		if c.isCategorical() {
			if len(c.Cats) == 0 {
				return true
			}
		} else if c.Iv.Empty() {
			return true
		}
	}
	return false
}

// String renders the predicate for logs and statistics panels. Attribute
// positions are shown when no schema is available; use Describe for names.
func (p Predicate) String() string { return p.Describe(nil) }

// Describe renders the predicate with attribute names resolved against the
// schema (which may be nil).
func (p Predicate) Describe(s *Schema) string {
	if len(p.conds) == 0 {
		return "true"
	}
	parts := make([]string, 0, len(p.conds))
	for _, c := range p.conds {
		name := fmt.Sprintf("a%d", c.Attr)
		if s != nil && c.Attr < s.Len() {
			name = s.Attr(c.Attr).Name
		}
		if c.isCategorical() {
			labels := make([]string, len(c.Cats))
			for i, ci := range c.Cats {
				labels[i] = fmt.Sprintf("%d", ci)
				if s != nil && c.Attr < s.Len() {
					if l, ok := s.Attr(c.Attr).Category(float64(ci)); ok {
						labels[i] = l
					}
				}
			}
			parts = append(parts, fmt.Sprintf("%s in {%s}", name, strings.Join(labels, ",")))
		} else {
			parts = append(parts, fmt.Sprintf("%s in %s", name, c.Iv))
		}
	}
	return strings.Join(parts, " and ")
}

func dedupInts(sorted []int) []int {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// subsetSortedInts reports whether every element of a occurs in b (both
// sorted ascending).
func subsetSortedInts(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

func intersectSortedInts(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Builder constructs predicates by attribute name with schema validation.
// It accumulates the first error encountered; Build reports it.
type Builder struct {
	schema *Schema
	pred   Predicate
	err    error
}

// NewBuilder returns a Builder over the schema.
func NewBuilder(s *Schema) *Builder { return &Builder{schema: s} }

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b
}

func (b *Builder) numericAttr(name string) (int, bool) {
	i, ok := b.schema.Lookup(name)
	if !ok {
		b.fail("relation: unknown attribute %q", name)
		return 0, false
	}
	if b.schema.Attr(i).Kind != Numeric {
		b.fail("relation: attribute %q is not numeric", name)
		return 0, false
	}
	return i, true
}

// Range constrains name to the closed interval [lo, hi].
func (b *Builder) Range(name string, lo, hi float64) *Builder {
	if lo > hi {
		return b.fail("relation: range on %q has lo %v > hi %v", name, lo, hi)
	}
	if i, ok := b.numericAttr(name); ok {
		b.pred = b.pred.WithInterval(i, Closed(lo, hi))
	}
	return b
}

// AtMost constrains name to (-inf, v].
func (b *Builder) AtMost(name string, v float64) *Builder {
	if i, ok := b.numericAttr(name); ok {
		b.pred = b.pred.WithInterval(i, Closed(math.Inf(-1), v))
	}
	return b
}

// AtLeast constrains name to [v, +inf).
func (b *Builder) AtLeast(name string, v float64) *Builder {
	if i, ok := b.numericAttr(name); ok {
		b.pred = b.pred.WithInterval(i, Closed(v, math.Inf(1)))
	}
	return b
}

// In constrains a categorical attribute to the listed labels.
func (b *Builder) In(name string, labels ...string) *Builder {
	i, ok := b.schema.Lookup(name)
	if !ok {
		return b.fail("relation: unknown attribute %q", name)
	}
	a := b.schema.Attr(i)
	if a.Kind != Categorical {
		return b.fail("relation: attribute %q is not categorical", name)
	}
	cats := make([]int, 0, len(labels))
	for _, l := range labels {
		ci, ok := a.CategoryIndex(l)
		if !ok {
			return b.fail("relation: attribute %q has no category %q", name, l)
		}
		cats = append(cats, ci)
	}
	b.pred = b.pred.WithCategories(i, cats)
	return b
}

// Build returns the accumulated predicate or the first error.
func (b *Builder) Build() (Predicate, error) {
	if b.err != nil {
		return Predicate{}, b.err
	}
	return b.pred, nil
}
