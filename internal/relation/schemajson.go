package relation

import (
	"encoding/json"
	"fmt"
)

// A schema serialises to JSON with its kinds and category labels spelled
// out. The answer cache hashes this form into a source's fingerprint
// (internal/qcache), so persisted answers are wiped when the schema
// changes.

// schemaDoc is the JSON wire form of a schema.
type schemaDoc struct {
	Attrs []attrDoc `json:"attrs"`
}

type attrDoc struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Min        float64  `json:"min,omitempty"`
	Max        float64  `json:"max,omitempty"`
	Resolution float64  `json:"resolution,omitempty"`
	Categories []string `json:"categories,omitempty"`
}

// MarshalJSON implements json.Marshaler for Schema.
func (s *Schema) MarshalJSON() ([]byte, error) {
	doc := schemaDoc{Attrs: make([]attrDoc, 0, s.Len())}
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		doc.Attrs = append(doc.Attrs, attrDoc{
			Name: a.Name, Kind: a.Kind.String(),
			Min: a.Min, Max: a.Max, Resolution: a.Resolution,
			Categories: a.Categories,
		})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler for Schema, validating the
// decoded attributes exactly like NewSchema.
func (s *Schema) UnmarshalJSON(data []byte) error {
	var doc schemaDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("relation: decode schema: %w", err)
	}
	attrs := make([]Attribute, 0, len(doc.Attrs))
	for _, ad := range doc.Attrs {
		kind := Numeric
		switch ad.Kind {
		case Numeric.String():
		case Categorical.String():
			kind = Categorical
		default:
			return fmt.Errorf("relation: unknown attribute kind %q", ad.Kind)
		}
		attrs = append(attrs, Attribute{
			Name: ad.Name, Kind: kind,
			Min: ad.Min, Max: ad.Max, Resolution: ad.Resolution,
			Categories: ad.Categories,
		})
	}
	decoded, err := NewSchema(attrs...)
	if err != nil {
		return err
	}
	*s = *decoded
	return nil
}
