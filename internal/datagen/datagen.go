// Package datagen builds the synthetic web-database catalogs used throughout
// the QR2 reproduction.
//
// The paper demonstrates QR2 against the live Blue Nile (diamonds) and Zillow
// (real estate) search sites. Those sites cannot be queried here, so this
// package generates catalogs with the statistical features the paper's
// evaluation depends on:
//
//   - realistic correlated attributes (diamond price grows super-linearly
//     with carat; house price correlates positively with square feet, which
//     is exactly what makes the paper's "best case" query fast);
//   - a large tie group: about 20% of diamonds share LengthWidthRatio = 1.00,
//     the paper's "worst case" that forces tie-group crawling;
//   - dense value regions (depth and table cluster tightly around their
//     ideal cuts), which is what the on-the-fly dense-region index targets;
//   - a proprietary system ranking function that the reranking algorithms
//     never see — they interact with it only through the top-k interface.
//
// All generators are deterministic for a given (n, seed).
package datagen

import (
	"math"
	"math/rand"

	"repro/internal/relation"
)

// Catalog bundles a generated relation with its hidden system ranking.
// The ranking is handed to the hidden-database simulator and must never be
// consulted by the reranking algorithms themselves.
type Catalog struct {
	// Rel is the generated table.
	Rel *relation.Relation
	// Rank is the proprietary system ranking: lower scores are returned
	// first by the web database.
	Rank func(relation.Tuple) float64
	// Name identifies the catalog ("bluenile", "zillow", ...).
	Name string
}

// noise returns a deterministic pseudo-random value in [0, 1) derived from a
// tuple ID, used to give system rankings a proprietary, irregular component.
func noise(id int64) float64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// roundTo rounds v to a multiple of step (step > 0).
func roundTo(v, step float64) float64 {
	return math.Round(v/step) * step
}

// BlueNile generates a diamonds catalog modelled on the Blue Nile search
// form: price, carat, depth %, table %, length/width ratio, and the
// categorical cut/color/clarity/shape attributes.
//
// Roughly 20% of stones get LengthWidthRatio exactly 1.00 (round brilliants
// are cut to equal length and width), reproducing the tie mass the paper
// reports ("around 20% of the tuples satisfy this predicate").
func BlueNile(n int, seed int64) *Catalog {
	schema := relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 200, Max: 250000, Resolution: 1},
		relation.Attribute{Name: "carat", Kind: relation.Numeric, Min: 0.23, Max: 6, Resolution: 0.01},
		relation.Attribute{Name: "depth", Kind: relation.Numeric, Min: 50, Max: 75, Resolution: 0.1},
		relation.Attribute{Name: "table", Kind: relation.Numeric, Min: 45, Max: 80, Resolution: 0.1},
		relation.Attribute{Name: "lwratio", Kind: relation.Numeric, Min: 0.75, Max: 2.75, Resolution: 0.01},
		relation.Attribute{Name: "cut", Kind: relation.Categorical,
			Categories: []string{"Fair", "Good", "Very Good", "Ideal", "Astor Ideal"}},
		relation.Attribute{Name: "color", Kind: relation.Categorical,
			Categories: []string{"D", "E", "F", "G", "H", "I", "J", "K"}},
		relation.Attribute{Name: "clarity", Kind: relation.Categorical,
			Categories: []string{"FL", "IF", "VVS1", "VVS2", "VS1", "VS2", "SI1", "SI2"}},
		relation.Attribute{Name: "shape", Kind: relation.Categorical,
			Categories: []string{"Round", "Princess", "Emerald", "Asscher", "Cushion", "Marquise", "Radiant", "Oval", "Pear", "Heart"}},
	)
	r := rand.New(rand.NewSource(seed))
	rel := relation.NewRelation("bluenile", schema)
	for i := 0; i < n; i++ {
		carat := clamp(math.Exp(r.NormFloat64()*0.55-0.3), 0.23, 6)
		carat = roundTo(carat, 0.01)
		cut := weightedCat(r, []float64{0.06, 0.16, 0.30, 0.40, 0.08})
		color := r.Intn(8)
		clarity := weightedCat(r, []float64{0.01, 0.04, 0.08, 0.12, 0.20, 0.25, 0.18, 0.12})
		shape := weightedCat(r, []float64{0.45, 0.09, 0.07, 0.04, 0.08, 0.05, 0.05, 0.09, 0.05, 0.03})

		// Price: log-linear in carat with quality premiums and noise.
		logp := 6.1 + 1.9*math.Log(carat) +
			0.09*float64(cut) + 0.07*float64(7-color) + 0.08*float64(7-clarity) +
			r.NormFloat64()*0.28
		price := clamp(math.Exp(logp), 200, 250000)
		price = roundTo(price, 1)

		// Depth and table cluster tightly around the ideal cut values —
		// these are the dense regions the RERANK oracle indexes.
		depth := clamp(61.8+r.NormFloat64()*1.4, 50, 75)
		depth = roundTo(depth, 0.1)
		table := clamp(57.0+r.NormFloat64()*2.2, 45, 80)
		table = roundTo(table, 0.1)

		// Length/width ratio: round stones are exactly 1.00 (the paper's
		// worst-case tie group); fancy shapes spread up to 2.75.
		var lw float64
		if shape == 0 || r.Float64() < 0.08 {
			lw = 1.00
		} else {
			lw = clamp(1.0+math.Abs(r.NormFloat64())*0.45, 0.75, 2.75)
			lw = roundTo(lw, 0.01)
		}

		rel.MustAppend(relation.Tuple{
			ID: int64(i + 1),
			Values: []float64{price, carat, depth, table, lw,
				float64(cut), float64(color), float64(clarity), float64(shape)},
		})
	}
	priceIdx, _ := schema.Lookup("price")
	caratIdx, _ := schema.Lookup("carat")
	cutIdx, _ := schema.Lookup("cut")
	logLo, logHi := math.Log(200), math.Log(250000)
	rank := func(t relation.Tuple) float64 {
		// Proprietary "featured" order: cheap first, nudged by carat and
		// cut quality, plus an irregular editorial component. Price enters
		// on a log scale so its influence survives the long price tail.
		p := (math.Log(t.Values[priceIdx]) - logLo) / (logHi - logLo)
		c := (t.Values[caratIdx] - 0.23) / (6 - 0.23)
		q := t.Values[cutIdx] / 4
		return 0.75*p - 0.1*c - 0.06*q + 0.04*noise(t.ID)
	}
	return &Catalog{Rel: rel, Rank: rank, Name: "bluenile"}
}

// Zillow generates a housing catalog modelled on the Zillow search form:
// price, square feet, bedrooms, bathrooms, year built, lot size, and
// categorical zip code and home type. Price and square feet are positively
// correlated — the property behind the paper's "best case" query
// price + squarefeet.
func Zillow(n int, seed int64) *Catalog {
	zips := make([]string, 25)
	for i := range zips {
		zips[i] = formatZip(76000 + i*7)
	}
	schema := relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.Numeric, Min: 40000, Max: 5000000, Resolution: 100},
		relation.Attribute{Name: "sqft", Kind: relation.Numeric, Min: 300, Max: 12000, Resolution: 1},
		relation.Attribute{Name: "beds", Kind: relation.Numeric, Min: 0, Max: 10, Resolution: 1},
		relation.Attribute{Name: "baths", Kind: relation.Numeric, Min: 1, Max: 9, Resolution: 0.5},
		relation.Attribute{Name: "year", Kind: relation.Numeric, Min: 1900, Max: 2018, Resolution: 1},
		relation.Attribute{Name: "lot", Kind: relation.Numeric, Min: 400, Max: 200000, Resolution: 10},
		relation.Attribute{Name: "zip", Kind: relation.Categorical, Categories: zips},
		relation.Attribute{Name: "type", Kind: relation.Categorical,
			Categories: []string{"House", "Condo", "Townhouse", "Apartment"}},
	)
	r := rand.New(rand.NewSource(seed))
	rel := relation.NewRelation("zillow", schema)
	for i := 0; i < n; i++ {
		// Latent size factor drives both sqft and price (ρ ≈ +0.8).
		z := r.NormFloat64()
		sqft := clamp(1700*math.Exp(0.45*z+0.12*r.NormFloat64()), 300, 12000)
		sqft = roundTo(sqft, 1)
		price := clamp(220000*math.Exp(0.55*z+0.30*r.NormFloat64()), 40000, 5000000)
		price = roundTo(price, 100)
		beds := clamp(math.Round(1.2+sqft/900+r.NormFloat64()*0.8), 0, 10)
		baths := clamp(roundTo(1+sqft/1500+r.NormFloat64()*0.5, 0.5), 1, 9)
		year := clamp(math.Round(1985+r.NormFloat64()*22), 1900, 2018)
		lot := clamp(7000*math.Exp(0.8*r.NormFloat64()), 400, 200000)
		lot = roundTo(lot, 10)
		zip := r.Intn(len(zips))
		typ := weightedCat(r, []float64{0.62, 0.18, 0.12, 0.08})
		rel.MustAppend(relation.Tuple{
			ID:     int64(i + 1),
			Values: []float64{price, sqft, beds, baths, year, lot, float64(zip), float64(typ)},
		})
	}
	priceIdx, _ := schema.Lookup("price")
	yearIdx, _ := schema.Lookup("year")
	sqftIdx, _ := schema.Lookup("sqft")
	logLo, logHi := math.Log(40000), math.Log(5000000)
	rank := func(t relation.Tuple) float64 {
		// Proprietary "Homes for You" order: affordable, recent and roomy
		// first, with an irregular relevance component. Price enters on a
		// log scale, as listing relevance scores do in practice —
		// otherwise the long price tail would mute its influence.
		p := (math.Log(t.Values[priceIdx]) - logLo) / (logHi - logLo)
		y := (t.Values[yearIdx] - 1900) / (2018 - 1900)
		s := (t.Values[sqftIdx] - 300) / (12000 - 300)
		return 0.6*p - 0.15*y - 0.1*s + 0.08*noise(t.ID)
	}
	return &Catalog{Rel: rel, Rank: rank, Name: "zillow"}
}

// Uniform generates attrs numeric attributes drawn uniformly from [0, 1000]
// at resolution 0.01, with a system ranking independent of every attribute.
// It is the neutral fixture for property-based correctness tests.
func Uniform(n, attrs int, seed int64) *Catalog {
	specs := make([]relation.Attribute, attrs)
	for i := range specs {
		specs[i] = relation.Attribute{
			Name: "a" + string(rune('0'+i)), Kind: relation.Numeric,
			Min: 0, Max: 1000, Resolution: 0.01,
		}
	}
	schema := relation.MustSchema(specs...)
	r := rand.New(rand.NewSource(seed))
	rel := relation.NewRelation("uniform", schema)
	for i := 0; i < n; i++ {
		vals := make([]float64, attrs)
		for j := range vals {
			vals[j] = roundTo(r.Float64()*1000, 0.01)
		}
		rel.MustAppend(relation.Tuple{ID: int64(i + 1), Values: vals})
	}
	rank := func(t relation.Tuple) float64 { return noise(t.ID) }
	return &Catalog{Rel: rel, Rank: rank, Name: "uniform"}
}

// TieHeavy generates a two-attribute catalog where tieFrac of the tuples
// share the exact value 500 on attribute "tied" — the general-positioning
// stress case that exercises the crawler.
func TieHeavy(n int, tieFrac float64, seed int64) *Catalog {
	schema := relation.MustSchema(
		relation.Attribute{Name: "tied", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
		relation.Attribute{Name: "free", Kind: relation.Numeric, Min: 0, Max: 1000, Resolution: 0.01},
	)
	r := rand.New(rand.NewSource(seed))
	rel := relation.NewRelation("tieheavy", schema)
	for i := 0; i < n; i++ {
		tied := roundTo(r.Float64()*1000, 0.01)
		if r.Float64() < tieFrac {
			tied = 500
		}
		free := roundTo(r.Float64()*1000, 0.01)
		rel.MustAppend(relation.Tuple{ID: int64(i + 1), Values: []float64{tied, free}})
	}
	rank := func(t relation.Tuple) float64 { return noise(t.ID) }
	return &Catalog{Rel: rel, Rank: rank, Name: "tieheavy"}
}

// weightedCat draws a category index with the given probability weights.
func weightedCat(r *rand.Rand, weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func formatZip(z int) string {
	digits := [5]byte{}
	for i := 4; i >= 0; i-- {
		digits[i] = byte('0' + z%10)
		z /= 10
	}
	return string(digits[:])
}
