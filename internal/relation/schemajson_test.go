package relation

import (
	"encoding/json"
	"testing"
)

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := testSchema(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schema
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("arity %d vs %d", back.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Attr(i), back.Attr(i)
		if a.Name != b.Name || a.Kind != b.Kind || a.Min != b.Min ||
			a.Max != b.Max || a.Resolution != b.Resolution || len(a.Categories) != len(b.Categories) {
			t.Fatalf("attr %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestSchemaJSONRejectsInvalid(t *testing.T) {
	var s Schema
	if err := json.Unmarshal([]byte(`{"attrs":[{"name":"a","kind":"telepathic"}]}`), &s); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := json.Unmarshal([]byte(`{"attrs":[{"name":"","kind":"numeric"}]}`), &s); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &s); err == nil {
		t.Fatal("garbage accepted")
	}
}
