// Package wire is the one binary codec for the values QR2 stores and
// ships: tuples, predicates and region rects. The peer protocol
// (internal/cluster), the dense-region index (internal/dense) and the
// answer cache's keys and persisted records (internal/qcache) all encode
// these values here and keep only their own record headers.
//
// Every reader takes the schema the bytes must fit and accepts only the
// bytes the matching Append writes:
//
//   - a tuple set's width equals the schema's;
//   - attributes and category codes lie inside the schema, a condition's
//     kind matches its attribute's, and attributes and codes ascend
//     strictly;
//   - interval flags carry no unknown bits;
//   - a predicate is canonical: no full interval, no -0 bound;
//   - varints are minimal and booleans are 0 or 1.
//
// Whatever decodes therefore re-encodes to the same bytes, so a record
// read back from disk or from a peer is one this binary could have
// written. One bounded Reader parses everything: its first failure
// latches, every declared count is checked against the bytes that remain
// before anything is allocated for it, and Finish rejects trailing bytes.
//
// Layouts. u32 and u64 are little-endian; an f64 travels as its IEEE-754
// bit pattern in a u64, so bounds and values round-trip exactly, ±Inf and
// NaN included; uvarint is an unsigned varint.
//
//	interval   u32 attr | f64 lo | f64 hi | u8 flags (1 = lo open, 2 = hi open)
//	predicate  one record per condition, ascending attr, to the end of the bytes:
//	             'n' interval                          numeric condition
//	             'c' u32 attr | u32 n | n × u32 code    categorical condition
//	rect       uvarint dims | dims × interval
//	tuples     uvarint width | uvarint n | n × (uvarint id | width × f64)
//
// The predicate layout is the answer cache's canonical key: predicates
// that accept the same tuples for structural reasons encode identically.
// relation.Predicate already sorts conditions and category sets; the
// encoding drops full intervals [-Inf, +Inf], which constrain nothing,
// and writes a -0 bound as +0 (rect bounds too). A predicate carries no
// count, so a record that embeds one stores it length-prefixed.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/region"
	"repro/internal/relation"
)

// intervalLen is the encoded size of one interval record.
const intervalLen = 4 + 8 + 8 + 1

// negZero is the bit pattern of -0, which no encoder writes.
const negZero = 1 << 63

// AppendPredicate appends the canonical encoding of p to b.
func AppendPredicate(b []byte, p relation.Predicate) []byte {
	for _, c := range p.Conditions() {
		if c.Cats != nil {
			b = append(b, 'c')
			b = binary.LittleEndian.AppendUint32(b, uint32(c.Attr))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Cats)))
			for _, ci := range c.Cats {
				b = binary.LittleEndian.AppendUint32(b, uint32(ci))
			}
			continue
		}
		if isFull(c.Iv) {
			// [-inf, +inf] constrains nothing; a predicate with and
			// without it accepts the same tuples.
			continue
		}
		b = append(b, 'n')
		b = appendInterval(b, c.Attr, c.Iv)
	}
	return b
}

// AppendRect appends the encoding of a rect to b.
func AppendRect(b []byte, r region.Rect) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Attrs)))
	for i, a := range r.Attrs {
		b = appendInterval(b, a, r.Ivs[i])
	}
	return b
}

// AppendTuples appends a tuple set of the given width (every tuple holds
// exactly width values) to b.
func AppendTuples(b []byte, ts []relation.Tuple, width int) []byte {
	// One reservation up front: a frame or record costs one allocation,
	// not the log-many growth appends that otherwise dominate.
	b = slices.Grow(b, 20+len(ts)*(10+8*width))
	b = binary.AppendUvarint(b, uint64(width))
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = binary.AppendUvarint(b, uint64(t.ID))
		for _, v := range t.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

func appendInterval(b []byte, attr int, iv relation.Interval) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(attr))
	b = binary.LittleEndian.AppendUint64(b, canonBits(iv.Lo))
	b = binary.LittleEndian.AppendUint64(b, canonBits(iv.Hi))
	var flags byte
	if iv.LoOpen {
		flags |= 1
	}
	if iv.HiOpen {
		flags |= 2
	}
	return append(b, flags)
}

func isFull(iv relation.Interval) bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1) && !iv.LoOpen && !iv.HiOpen
}

// canonBits returns the bit pattern of v with negative zero collapsed onto
// positive zero, so [0, x] and [-0, x] encode identically.
func canonBits(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v)
}

// ReadPredicate decodes b, all of it, as one predicate over schema.
func ReadPredicate(b []byte, schema *relation.Schema) (relation.Predicate, error) {
	r := NewReader(b)
	p := r.predicate(schema)
	return p, r.Finish()
}

// Reader consumes encoded values from one byte slice. The first failure
// latches; every later read returns zero values, so a decoder parses
// straight-line and checks Err or Finish once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Fail latches a decode error unless one is already latched.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err reports the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) remaining() int { return len(r.buf) - r.off }

// Finish reports the first decode error, or complains about trailing
// bytes: a well-formed record is consumed exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// take returns the next n bytes, or nil after latching a truncation.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.Fail("wire: truncated: %s past end", what)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("wire: bool byte %#x", v)
		return false
	}
	return v == 1
}

func (r *Reader) u32() uint32 {
	if b := r.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) f64() float64 {
	if b := r.take(8, "f64"); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Uvarint reads one minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("wire: truncated or overflowing uvarint")
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("wire: non-minimal uvarint")
		return 0
	}
	r.off += n
	return v
}

// Count reads a declared element count and rejects it unless at least
// minBytes per element remain — the guard that makes a hostile count die
// before any allocation sized by it.
func (r *Reader) Count(what string, minBytes int) int {
	return r.guard(r.Uvarint(), what, minBytes)
}

func (r *Reader) guard(n uint64, what string, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/max(minBytes, 1)) {
		r.Fail("wire: %d %s declared in %d remaining bytes", n, what, r.remaining())
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed byte string, aliasing the Reader's buffer.
func (r *Reader) Blob() []byte {
	return r.take(r.Count("blob bytes", 1), "blob")
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Blob()) }

// Predicate reads one length-prefixed predicate over schema.
func (r *Reader) Predicate(schema *relation.Schema) relation.Predicate {
	b := r.Blob()
	if r.err != nil {
		return relation.Predicate{}
	}
	p, err := ReadPredicate(b, schema)
	if err != nil {
		r.Fail("%w", err)
	}
	return p
}

// predicate reads condition records to the end of the buffer.
func (r *Reader) predicate(schema *relation.Schema) relation.Predicate {
	var p relation.Predicate
	prev := -1
	for r.err == nil && r.remaining() > 0 {
		switch tag := r.U8(); tag {
		case 'n':
			attr, iv := r.interval(schema, prev)
			if r.err != nil {
				break
			}
			if schema.Attr(attr).Kind != relation.Numeric {
				r.Fail("wire: numeric condition on categorical attribute %q", schema.Attr(attr).Name)
			} else if isFull(iv) {
				r.Fail("wire: full interval on attribute %d is not canonical", attr)
			}
			p, prev = p.WithInterval(attr, iv), attr
		case 'c':
			attr := r.attr(schema, prev)
			n := r.guard(uint64(r.u32()), "category codes", 4)
			if r.err != nil {
				break
			}
			a := schema.Attr(attr)
			if a.Kind != relation.Categorical {
				r.Fail("wire: categorical condition on numeric attribute %q", a.Name)
				break
			}
			cats := make([]int, n)
			for i := range cats {
				code := int(r.u32())
				if r.err == nil && (code >= len(a.Categories) || i > 0 && code <= cats[i-1]) {
					r.Fail("wire: category code %d of %q out of range or order", code, a.Name)
				}
				cats[i] = code
			}
			p, prev = p.WithCategories(attr, cats), attr
		default:
			r.Fail("wire: unknown condition tag %#x", tag)
		}
	}
	if r.err != nil {
		return relation.Predicate{}
	}
	return p
}

// attr reads an attribute position that lies inside schema and above
// prev.
func (r *Reader) attr(schema *relation.Schema, prev int) int {
	a := r.u32()
	if r.err != nil {
		return 0
	}
	if a >= uint32(schema.Len()) || int(a) <= prev {
		r.Fail("wire: attribute %d outside schema (%d attrs) or not above %d", a, schema.Len(), prev)
		return 0
	}
	return int(a)
}

// interval reads one interval record.
func (r *Reader) interval(schema *relation.Schema, prev int) (int, relation.Interval) {
	attr := r.attr(schema, prev)
	lo, hi, flags := r.f64(), r.f64(), r.U8()
	if r.err != nil {
		return 0, relation.Interval{}
	}
	if flags&^3 != 0 {
		r.Fail("wire: interval flags %#x carry unknown bits", flags)
	}
	if math.Float64bits(lo) == negZero || math.Float64bits(hi) == negZero {
		r.Fail("wire: -0 bound is not canonical")
	}
	return attr, relation.Interval{Lo: lo, Hi: hi, LoOpen: flags&1 != 0, HiOpen: flags&2 != 0}
}

// Rect reads one rect over schema.
func (r *Reader) Rect(schema *relation.Schema) region.Rect {
	n := r.Count("rect dimensions", intervalLen)
	if r.err != nil || n == 0 {
		return region.Rect{}
	}
	rc := region.Rect{Attrs: make([]int, n), Ivs: make([]relation.Interval, n)}
	prev := -1
	for i := range rc.Attrs {
		rc.Attrs[i], rc.Ivs[i] = r.interval(schema, prev)
		prev = rc.Attrs[i]
	}
	if r.err != nil {
		return region.Rect{}
	}
	return rc
}

// Tuples reads one tuple set, which must be exactly as wide as schema.
// Every tuple's values share one backing array.
func (r *Reader) Tuples(schema *relation.Schema) []relation.Tuple {
	width := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if width != uint64(schema.Len()) {
		r.Fail("wire: tuples have %d values, schema has %d", width, schema.Len())
		return nil
	}
	w := int(width)
	n := r.Count("tuples", 1+8*w)
	if r.err != nil || n == 0 {
		return nil
	}
	backing := make([]float64, n*w)
	out := make([]relation.Tuple, n)
	for i := range out {
		id := r.Uvarint()
		b := r.take(8*w, "tuple values")
		if r.err != nil {
			return nil
		}
		vals := backing[i*w : (i+1)*w : (i+1)*w]
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		out[i] = relation.Tuple{ID: int64(id), Values: vals}
	}
	return out
}
