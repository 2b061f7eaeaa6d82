// Package ranking models user-specified ranking functions.
//
// Following the paper, a ranking function is a monotone linear combination
// f(t) = Σᵢ wᵢ·normᵢ(t[Aᵢ]) of min–max normalised numeric attributes, with
// weights in any range (the QR2 UI uses sliders in [-1, 1]). Scores are
// minimised: the best tuple has the smallest f. One-dimensional ascending
// and descending orders are the single-term special cases with weights +1
// and -1.
//
// The package provides the function model, a small expression parser for
// strings such as "price - 0.3*sqft" (the format QR2's popular-functions
// list uses), per-schema binding with normalisation, and helpers the core
// algorithms need (weight vectors over the ranking attributes).
package ranking

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Term is one weighted attribute of a ranking function.
type Term struct {
	Attr   string
	Weight float64
}

// Function is a user-specified linear ranking function. Lower scores rank
// first.
type Function struct {
	Terms []Term
}

// Ascending ranks by a single attribute, smallest value first.
func Ascending(attr string) Function {
	return Function{Terms: []Term{{Attr: attr, Weight: 1}}}
}

// Descending ranks by a single attribute, largest value first.
func Descending(attr string) Function {
	return Function{Terms: []Term{{Attr: attr, Weight: -1}}}
}

// Validate checks that the function has at least one term, no duplicate
// attributes, and no zero or non-finite weights.
func (f Function) Validate() error {
	if len(f.Terms) == 0 {
		return fmt.Errorf("ranking: function has no terms")
	}
	seen := map[string]bool{}
	for _, t := range f.Terms {
		if t.Attr == "" {
			return fmt.Errorf("ranking: term with empty attribute")
		}
		if seen[t.Attr] {
			return fmt.Errorf("ranking: duplicate attribute %q", t.Attr)
		}
		seen[t.Attr] = true
		if t.Weight == 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("ranking: attribute %q has invalid weight %v", t.Attr, t.Weight)
		}
	}
	return nil
}

// String renders the function in the parser's syntax.
func (f Function) String() string {
	var b strings.Builder
	for i, t := range f.Terms {
		w := t.Weight
		if i == 0 {
			if w < 0 {
				b.WriteString("-")
				w = -w
			}
		} else {
			if w < 0 {
				b.WriteString(" - ")
				w = -w
			} else {
				b.WriteString(" + ")
			}
		}
		if w == 1 {
			b.WriteString(t.Attr)
		} else {
			fmt.Fprintf(&b, "%g*%s", w, t.Attr)
		}
	}
	return b.String()
}

// Normalization holds per-attribute min–max bounds used to place all
// ranking attributes on a comparable [0, 1] scale (paper §II-B, "attributes
// with different cardinalities"). Slices are aligned with the schema.
type Normalization struct {
	Min, Max []float64
}

// FromSchema builds a normalisation from the domains the schema declares.
// QR2 proper discovers the true extrema through the public interface (see
// core.DiscoverNormalization); this constructor is the fallback and test
// fixture.
func FromSchema(s *relation.Schema) Normalization {
	n := Normalization{Min: make([]float64, s.Len()), Max: make([]float64, s.Len())}
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		n.Min[i], n.Max[i] = a.Min, a.Max
	}
	return n
}

// Normalize maps a raw attribute value to [0, 1] (values outside the
// recorded extrema clamp beyond that range linearly; no clipping, so
// monotonicity is exact).
func (n Normalization) Normalize(attr int, raw float64) float64 {
	span := n.Max[attr] - n.Min[attr]
	if span <= 0 {
		return 0
	}
	return (raw - n.Min[attr]) / span
}

// Denormalize maps a normalised coordinate back to a raw value.
func (n Normalization) Denormalize(attr int, x float64) float64 {
	return n.Min[attr] + x*(n.Max[attr]-n.Min[attr])
}

// Scorer is a ranking function bound to a schema and a normalisation. It is
// immutable and safe for concurrent use.
type Scorer struct {
	attrs   []int
	weights []float64
	norm    Normalization
}

// Bind resolves a function's attribute names against the schema, checks that
// every ranking attribute is numeric, and returns a Scorer. Ranking
// attributes are ordered by schema position.
func Bind(f Function, s *relation.Schema, n Normalization) (*Scorer, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(n.Min) != s.Len() || len(n.Max) != s.Len() {
		return nil, fmt.Errorf("ranking: normalisation arity %d does not match schema %d", len(n.Min), s.Len())
	}
	type bound struct {
		attr int
		w    float64
	}
	bounds := make([]bound, 0, len(f.Terms))
	for _, t := range f.Terms {
		i, ok := s.Lookup(t.Attr)
		if !ok {
			return nil, fmt.Errorf("ranking: unknown attribute %q", t.Attr)
		}
		if s.Attr(i).Kind != relation.Numeric {
			return nil, fmt.Errorf("ranking: attribute %q is categorical and cannot be ranked", t.Attr)
		}
		bounds = append(bounds, bound{attr: i, w: t.Weight})
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a].attr < bounds[b].attr })
	sc := &Scorer{norm: n}
	for _, b := range bounds {
		sc.attrs = append(sc.attrs, b.attr)
		sc.weights = append(sc.weights, b.w)
	}
	return sc, nil
}

// Attrs returns the schema positions of the ranking attributes in
// increasing order. The slice must not be modified.
func (sc *Scorer) Attrs() []int { return sc.attrs }

// Weights returns the weights aligned with Attrs. The slice must not be
// modified.
func (sc *Scorer) Weights() []float64 { return sc.weights }

// Dims returns the number of ranking attributes.
func (sc *Scorer) Dims() int { return len(sc.attrs) }

// Norm returns the scorer's normalisation.
func (sc *Scorer) Norm() Normalization { return sc.norm }

// Score evaluates the ranking function on a tuple; lower is better.
func (sc *Scorer) Score(t relation.Tuple) float64 {
	var s float64
	for i, a := range sc.attrs {
		s += sc.weights[i] * sc.norm.Normalize(a, t.Values[a])
	}
	return s
}
