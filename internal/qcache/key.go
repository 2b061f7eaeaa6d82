package qcache

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/wire"
)

// Canonical predicate keying. Two predicates that accept exactly the same
// tuples for structural reasons — same conditions arriving in a different
// construction order, redundant full-interval constraints, duplicate or
// unsorted category lists, -0 bounds — must map to the same cache key, so
// that semantically identical filters submitted by different users share
// one entry. The key is the predicate's canonical wire encoding
// (internal/wire), which performs exactly these normalisations.

// KeyOf returns the canonical cache key for a predicate.
func KeyOf(p relation.Predicate) string { return string(wire.AppendPredicate(nil, p)) }

// predOfKey decodes a source key — a canonical predicate key, or a crawl
// set's 'R'-marked one — against schema. ok is false for any key KeyOf
// could not have produced under that schema.
func predOfKey(schema *relation.Schema, key string) (relation.Predicate, bool) {
	p, err := wire.ReadPredicate([]byte(strings.TrimPrefix(key, crawlKeyPrefix)), schema)
	return p, err == nil
}
