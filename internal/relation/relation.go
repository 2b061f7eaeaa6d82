// Package relation provides the data model shared by every QR2 component:
// typed schemas over numeric and categorical attributes, tuples, in-memory
// relations, and conjunctive filter predicates with interval algebra.
//
// The hidden web database simulator, the crawler, the dense-region index and
// the reranking algorithms all exchange values of these types. Tuples store
// every attribute as a float64; categorical attributes hold the index of the
// category in the attribute's Categories list.
package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Kind distinguishes numeric attributes (ordered, rankable, range-filterable)
// from categorical ones (unordered, filterable by membership only).
type Kind uint8

const (
	// Numeric attributes carry an ordered domain [Min, Max] and may be used
	// both in range filters and in ranking functions.
	Numeric Kind = iota
	// Categorical attributes carry a finite list of categories and may be
	// used in membership filters only.
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attribute describes one column of a web database schema.
type Attribute struct {
	// Name is the public name of the attribute, as it appears in the web
	// form of the database (e.g. "price", "carat").
	Name string
	// Kind selects between Numeric and Categorical.
	Kind Kind
	// Min and Max bound the numeric domain. They are advisory: the hidden
	// database may publish them on its search form, but QR2 discovers the
	// true extrema through the public interface when normalising.
	Min, Max float64
	// Resolution is the smallest distinguishable step of a numeric domain
	// (for example 1 for integer dollar prices, 0.01 for carats). Zero
	// means the domain is treated as continuous.
	Resolution float64
	// Categories lists the values of a categorical domain.
	Categories []string
}

// IsNumeric reports whether the attribute is numeric.
func (a Attribute) IsNumeric() bool { return a.Kind == Numeric }

// Category returns the label for a categorical value stored in a tuple.
func (a Attribute) Category(v float64) (string, bool) {
	i := int(v)
	if a.Kind != Categorical || i < 0 || i >= len(a.Categories) {
		return "", false
	}
	return a.Categories[i], true
}

// CategoryIndex resolves a category label to its tuple encoding.
func (a Attribute) CategoryIndex(label string) (int, bool) {
	for i, c := range a.Categories {
		if c == label {
			return i, true
		}
	}
	return 0, false
}

// Domain returns the attribute's numeric domain as an interval.
func (a Attribute) Domain() Interval {
	return Closed(a.Min, a.Max)
}

// Schema is an immutable, ordered collection of attributes with fast
// name lookup.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema validates and builds a schema. Attribute names must be non-empty
// and unique; numeric attributes need Min <= Max; categorical attributes need
// at least one category.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		switch a.Kind {
		case Numeric:
			if math.IsNaN(a.Min) || math.IsNaN(a.Max) || a.Min > a.Max {
				return nil, fmt.Errorf("relation: attribute %q has invalid domain [%v, %v]", a.Name, a.Min, a.Max)
			}
			if a.Resolution < 0 {
				return nil, fmt.Errorf("relation: attribute %q has negative resolution", a.Name)
			}
		case Categorical:
			if len(a.Categories) == 0 {
				return nil, fmt.Errorf("relation: categorical attribute %q has no categories", a.Name)
			}
		default:
			return nil, fmt.Errorf("relation: attribute %q has unknown kind %v", a.Name, a.Kind)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// statically known schemas such as the bundled data generators.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Lookup resolves an attribute name to its position.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Tuple is a single database row. Values are aligned with the schema; a
// categorical value stores the category index as a float64.
type Tuple struct {
	ID     int64
	Values []float64
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	vals := make([]float64, len(t.Values))
	copy(vals, t.Values)
	return Tuple{ID: t.ID, Values: vals}
}

// Relation is an in-memory table used by the hidden database simulator and
// by brute-force oracles in tests. It is append-only.
type Relation struct {
	name   string
	schema *Schema
	tuples []Tuple
}

// NewRelation builds an empty relation over a schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the tuple at position i (not by ID).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Append validates a tuple against the schema and adds it.
func (r *Relation) Append(t Tuple) error {
	if len(t.Values) != r.schema.Len() {
		return fmt.Errorf("relation %q: tuple %d has %d values, schema has %d attributes",
			r.name, t.ID, len(t.Values), r.schema.Len())
	}
	for i, v := range t.Values {
		a := r.schema.Attr(i)
		switch a.Kind {
		case Numeric:
			if math.IsNaN(v) {
				return fmt.Errorf("relation %q: tuple %d attribute %q is NaN", r.name, t.ID, a.Name)
			}
		case Categorical:
			ci := int(v)
			if ci < 0 || ci >= len(a.Categories) || float64(ci) != v {
				return fmt.Errorf("relation %q: tuple %d attribute %q has invalid category code %v",
					r.name, t.ID, a.Name, v)
			}
		}
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend is Append that panics on error; for generators and tests.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Scan calls fn for each tuple in insertion order until fn returns false.
func (r *Relation) Scan(fn func(Tuple) bool) {
	for _, t := range r.tuples {
		if !fn(t) {
			return
		}
	}
}

// Select returns all tuples matching p, in insertion order.
func (r *Relation) Select(p Predicate) []Tuple {
	var out []Tuple
	for _, t := range r.tuples {
		if p.Match(t) {
			out = append(out, t)
		}
	}
	return out
}

// SortedBy returns the tuple positions ordered by ascending score with ties
// broken by tuple ID. It does not modify the relation. Each score is computed
// once; position is the last key, so the order is the one a stable sort gives
// even when IDs repeat.
func (r *Relation) SortedBy(score func(Tuple) float64) []int {
	keys := make([]float64, len(r.tuples))
	for i, t := range r.tuples {
		keys[i] = score(t)
	}
	idx := Order(keys, func(i, j int32) int { return cmp.Compare(r.tuples[i].ID, r.tuples[j].ID) })
	order := make([]int, len(idx))
	for i, pos := range idx {
		order[i] = int(pos)
	}
	return order
}

// Order returns the indexes of keys sorted by ascending key (-0 equal to +0),
// equal keys ordered by tie when it is non-nil and then by index. It
// radix-sorts the top 33 bits of order-preserving keys, least significant
// digit first and skipping any digit all keys share, then sorts each run of
// equal prefixes that holds different keys (less than about one part in a
// million apart) or, given a tie, more than one key. The passes are linear in
// len(keys); the runs are short unless many keys tie.
func Order(keys []float64, tie func(i, j int32) int) []int32 {
	const (
		digitBits = 11
		digits    = 3
		mask      = 1<<digitBits - 1
		low       = 64 - digits*digitBits // bits below the radix-sorted prefix
	)
	n := len(keys)
	bits, bitsTmp := make([]uint64, n), make([]uint64, n)
	idx, idxTmp := make([]int32, n), make([]int32, n)
	var count [digits][mask + 1]int32
	for i, v := range keys {
		b := sortBits(v)
		bits[i], idx[i] = b, int32(i)
		count[0][b>>low&mask]++
		count[1][b>>(low+digitBits)&mask]++
		count[2][b>>(low+2*digitBits)&mask]++
	}
	for d := range digits {
		shift, c := low+d*digitBits, &count[d]
		if n == 0 || int(c[bits[0]>>shift&mask]) == n {
			continue
		}
		var sum int32
		for v, m := range c {
			c[v], sum = sum, sum+m
		}
		for i, b := range bits {
			v := b >> shift & mask
			bitsTmp[c[v]], idxTmp[c[v]] = b, idx[i]
			c[v]++
		}
		bits, bitsTmp, idx, idxTmp = bitsTmp, bits, idxTmp, idx
	}
	full := func(i, j int32) int {
		if c := cmp.Compare(sortBits(keys[i]), sortBits(keys[j])); c != 0 {
			return c
		}
		if tie != nil {
			if c := tie(i, j); c != 0 {
				return c
			}
		}
		return cmp.Compare(i, j)
	}
	// Finish each run of keys sharing the radix-sorted prefix. The stable
	// passes left equal keys in index order, which is final without a tie.
	for i := 0; i < n; {
		j, sorted := i+1, true
		for ; j < n && bits[j]>>low == bits[i]>>low; j++ {
			sorted = sorted && tie == nil && bits[j] == bits[i]
		}
		if !sorted {
			slices.SortFunc(idx[i:j], full)
		}
		i = j
	}
	return idx
}

// sortBits maps v to a uint64 in the same order, with -0 and +0 equal.
func sortBits(v float64) uint64 {
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// MinMax returns the smallest and largest value of a numeric attribute over
// the relation. It reports ok=false for an empty relation or a categorical
// attribute.
func (r *Relation) MinMax(attr int) (lo, hi float64, ok bool) {
	if len(r.tuples) == 0 || attr < 0 || attr >= r.schema.Len() || r.schema.Attr(attr).Kind != Numeric {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, t := range r.tuples {
		v := t.Values[attr]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
