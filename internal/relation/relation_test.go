package relation

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "price", Kind: Numeric, Min: 0, Max: 1000, Resolution: 1},
		Attribute{Name: "carat", Kind: Numeric, Min: 0.2, Max: 5, Resolution: 0.01},
		Attribute{Name: "cut", Kind: Categorical, Categories: []string{"Fair", "Good", "Ideal"}},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
		want  string
	}{
		{"empty name", []Attribute{{Name: "", Kind: Numeric}}, "empty name"},
		{"duplicate", []Attribute{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}, "duplicate"},
		{"bad domain", []Attribute{{Name: "a", Kind: Numeric, Min: 2, Max: 1}}, "invalid domain"},
		{"nan domain", []Attribute{{Name: "a", Kind: Numeric, Min: math.NaN()}}, "invalid domain"},
		{"neg resolution", []Attribute{{Name: "a", Kind: Numeric, Max: 1, Resolution: -1}}, "negative resolution"},
		{"no categories", []Attribute{{Name: "a", Kind: Categorical}}, "no categories"},
		{"bad kind", []Attribute{{Name: "a", Kind: Kind(9)}}, "unknown kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.attrs...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewSchema error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	i, ok := s.Lookup("carat")
	if !ok || i != 1 {
		t.Fatalf("Lookup(carat) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) should fail")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "price" || names[2] != "cut" {
		t.Fatalf("Names = %v", names)
	}
}

func TestAttributeCategories(t *testing.T) {
	s := testSchema(t)
	cut := s.Attr(2)
	if l, ok := cut.Category(1); !ok || l != "Good" {
		t.Fatalf("Category(1) = %q, %v", l, ok)
	}
	if _, ok := cut.Category(7); ok {
		t.Fatal("Category(7) should fail")
	}
	if ci, ok := cut.CategoryIndex("Ideal"); !ok || ci != 2 {
		t.Fatalf("CategoryIndex(Ideal) = %d, %v", ci, ok)
	}
	if _, ok := cut.CategoryIndex("Shiny"); ok {
		t.Fatal("CategoryIndex(Shiny) should fail")
	}
	if !s.Attr(0).IsNumeric() || cut.IsNumeric() {
		t.Fatal("IsNumeric misclassified")
	}
	if d := s.Attr(0).Domain(); d.Lo != 0 || d.Hi != 1000 {
		t.Fatalf("Domain = %v", d)
	}
}

func TestRelationAppendValidation(t *testing.T) {
	s := testSchema(t)
	r := NewRelation("test", s)
	if err := r.Append(Tuple{ID: 1, Values: []float64{100, 1.5, 2}}); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	if err := r.Append(Tuple{ID: 2, Values: []float64{100, 1.5}}); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := r.Append(Tuple{ID: 3, Values: []float64{math.NaN(), 1.5, 0}}); err == nil {
		t.Fatal("NaN numeric accepted")
	}
	if err := r.Append(Tuple{ID: 4, Values: []float64{1, 1, 5}}); err == nil {
		t.Fatal("out-of-range category accepted")
	}
	if err := r.Append(Tuple{ID: 5, Values: []float64{1, 1, 1.5}}); err == nil {
		t.Fatal("fractional category accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if r.Name() != "test" || r.Schema() != s {
		t.Fatal("accessors broken")
	}
}

func TestRelationScanSelect(t *testing.T) {
	s := testSchema(t)
	r := NewRelation("test", s)
	for i := 0; i < 10; i++ {
		r.MustAppend(Tuple{ID: int64(i), Values: []float64{float64(i * 100), 1, float64(i % 3)}})
	}
	var n int
	r.Scan(func(Tuple) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("Scan early exit visited %d, want 4", n)
	}
	p := Predicate{}.WithInterval(0, Closed(200, 500))
	got := r.Select(p)
	if len(got) != 4 {
		t.Fatalf("Select returned %d tuples, want 4", len(got))
	}
	for _, tu := range got {
		if tu.Values[0] < 200 || tu.Values[0] > 500 {
			t.Fatalf("Select returned non-matching tuple %v", tu)
		}
	}
}

func TestRelationSortedBy(t *testing.T) {
	s := testSchema(t)
	r := NewRelation("test", s)
	vals := []float64{5, 3, 9, 3, 1}
	for i, v := range vals {
		r.MustAppend(Tuple{ID: int64(i), Values: []float64{v, 1, 0}})
	}
	order := r.SortedBy(func(t Tuple) float64 { return t.Values[0] })
	want := []int{4, 1, 3, 0, 2} // 1, 3(id1), 3(id3), 5, 9
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestOrderMatchesStableSort compares Order with a stable comparison sort
// on keys built to hit its edges: heavy ties, -0 beside +0, infinities, and
// distinct keys closer than the radix-sorted prefix can tell apart.
func TestOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.3, -2.5e-300}
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(300)
		keys := make([]float64, n)
		ids := make([]int32, n)
		for i := range keys {
			switch r.Intn(4) {
			case 0:
				keys[i] = pool[r.Intn(len(pool))]
			case 1:
				keys[i] = math.Nextafter(1, 2) + float64(r.Intn(8))*1e-15
			case 2:
				keys[i] = float64(r.Intn(5))
			default:
				keys[i] = r.NormFloat64() * 1e6
			}
			ids[i] = int32(r.Intn(20))
		}
		for _, tie := range []func(i, j int32) int{nil, func(i, j int32) int { return cmp.Compare(ids[i], ids[j]) }} {
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, b int) bool {
				ka, kb := keys[want[a]], keys[want[b]]
				if ka != kb {
					return ka < kb
				}
				return tie != nil && tie(want[a], want[b]) < 0
			})
			if got := Order(keys, tie); !slices.Equal(got, want) {
				t.Fatalf("trial %d (tie %v): Order = %v, want %v\nkeys %v", trial, tie != nil, got, want, keys)
			}
		}
	}
}

func TestRelationMinMax(t *testing.T) {
	s := testSchema(t)
	r := NewRelation("test", s)
	if _, _, ok := r.MinMax(0); ok {
		t.Fatal("MinMax on empty relation should fail")
	}
	for _, v := range []float64{5, 3, 9} {
		r.MustAppend(Tuple{ID: int64(v), Values: []float64{v, v / 10, 0}})
	}
	lo, hi, ok := r.MinMax(0)
	if !ok || lo != 3 || hi != 9 {
		t.Fatalf("MinMax = %v, %v, %v", lo, hi, ok)
	}
	if _, _, ok := r.MinMax(2); ok {
		t.Fatal("MinMax on categorical should fail")
	}
	if _, _, ok := r.MinMax(99); ok {
		t.Fatal("MinMax out of range should fail")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{ID: 1, Values: []float64{1, 2}}
	b := a.Clone()
	b.Values[0] = 99
	if a.Values[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("Kind(9).String() = %q", Kind(9).String())
	}
}
