package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/relation"
)

// The peer protocol wire format. One TCP connection carries a stream
// of length-prefixed binary frames in both directions; request IDs
// multiplex concurrent operations, so responses return in whatever order
// the peer finishes them:
//
//	uint32 LE   frame length (everything after these 4 bytes)
//	uint8       op code
//	uint8       flags (op-specific; unused bits must be zero)
//	uint64 LE   request id (responses echo the request's id)
//	payload     op-specific body
//
// Integers inside payloads are unsigned varints; float64s travel as
// IEEE-754 bit patterns (8 bytes LE), so bounds round-trip exactly —
// both ends derive the identical canonical cache key from the wire
// predicate.
// Strings and byte blobs are length-prefixed with a varint bounded by
// the bytes remaining in the frame, so a hostile length prefix can
// never force an over-allocation.
//
// Op table (see doc.go "Peer protocol" for the full semantics):
//
//	opHello      1   client → server: magic, highest supported version, self id
//	opHelloAck   2   server → client: negotiated version, self id
//	opGet        3   residency lookup (ns, caller epoch+scope, predicate)
//	opGetResp    4   found/overflow, owner epoch+scope, tuples, span subtree
//	opPut        5   answer admission (ns, produced-under epoch+scope, tuples)
//	opPutResp    6   admission status (ok / stale-epoch / refused), subtree
//	             7–10 retired: ring and obs pulls ride plain HTTP GET
//	                 (/cluster/ring, /cluster/obs); a frame carrying one
//	                 is answered opErr like any unknown op
//	opBatchGet  11   N coalesced lookups in one frame
//	opBatchResp 12   N getResp bodies, positionally matched
//	opErr       15   request-scoped failure: code (HTTP-alike) + message
//
// A decode failure at the frame layer (bad length, truncated header)
// poisons the connection — framing is lost, nothing after it can be
// trusted. A decode failure inside a payload, or an unknown op code,
// fails only that request: the server answers opErr and keeps serving,
// which is what lets a newer binary speak to this one.
const (
	opHello     = 1
	opHelloAck  = 2
	opGet       = 3
	opGetResp   = 4
	opPut       = 5
	opPutResp   = 6
	opBatchGet  = 11
	opBatchResp = 12
	opErr       = 15
)

const (
	// protoMagic opens the hello payload; a server that reads anything
	// else is talking to something that is not a QR2 peer.
	protoMagic = "QR2P"
	// protoV2 is this binary's protocol version — the only one there is;
	// a hello or ack announcing anything below it fails the handshake.
	protoV2 = 2
	// frameHeaderLen is op + flags + request id.
	frameHeaderLen = 1 + 1 + 8
	// maxFrameLen bounds one frame (a batch of system-k answers with
	// stitched subtrees fits comfortably; a hostile length prefix dies
	// here before any allocation).
	maxFrameLen = 16 << 20
	// maxBatchWire bounds the lookups one batch frame may carry —
	// decode-side ceiling; the batcher's own cap is Config.MaxBatch.
	maxBatchWire = 1024
)

// put admission statuses carried by opPutResp.
const (
	putStatusOK      = 0
	putStatusStale   = 1 // older epoch than the receiver serves under
	putStatusRefused = 2 // malformed or unknown namespace
)

// wireWriter appends wire primitives to a reusable buffer.
type wireWriter struct {
	buf []byte
}

func (w *wireWriter) u8(v byte) { w.buf = append(w.buf, v) }
func (w *wireWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *wireWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *wireWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *wireWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *wireWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// grow reserves capacity for at least n more bytes. Hot-path encoders
// call it once up front so a frame costs one allocation, not the
// log-many growth appends that otherwise dominate the forward path.
func (w *wireWriter) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		nb := make([]byte, len(w.buf), len(w.buf)+n)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// wireReader consumes wire primitives from one frame payload. The first
// failure latches err; every later read returns zero values, so decoders
// can parse straight-line and check err once.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("cluster: truncated frame: u8 past end")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("cluster: truncated frame: bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("cluster: truncated frame: f64 past end")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// count reads a declared element count and rejects it unless at least
// minBytes per element remain in the frame — the guard that makes a
// hostile count die before any allocation sized by it.
func (r *wireReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail("cluster: frame declares %d %s in %d remaining bytes", n, what, r.remaining())
		return 0
	}
	return int(n)
}

func (r *wireReader) str() string {
	n := r.count("string bytes", 1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *wireReader) blob() []byte {
	n := r.count("blob bytes", 1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// finish reports the first decode error, or complains about trailing
// bytes — a well-formed payload is consumed exactly.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("cluster: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

// --- predicate ---

// appendPredicate encodes a predicate: condition count, then per
// condition the attribute index, a kind byte, and either the interval
// (bit-exact bounds + open flags) or the category set.
func appendPredicate(w *wireWriter, p relation.Predicate) {
	conds := p.Conditions()
	w.uvarint(uint64(len(conds)))
	for _, c := range conds {
		w.uvarint(uint64(c.Attr))
		if c.Cats != nil {
			w.u8(1)
			w.uvarint(uint64(len(c.Cats)))
			for _, cat := range c.Cats {
				w.uvarint(uint64(cat))
			}
			continue
		}
		w.u8(0)
		w.f64(c.Iv.Lo)
		w.f64(c.Iv.Hi)
		var flags byte
		if c.Iv.LoOpen {
			flags |= 1
		}
		if c.Iv.HiOpen {
			flags |= 2
		}
		w.u8(flags)
	}
}

// decodePredicate reconstructs a predicate against the receiver's
// schema. Attribute indexes are positional — both replicas front the
// same source, so the schemas agree — but every index and category code
// is validated against the local schema anyway: a version-skewed or
// corrupt peer must produce an error, not a predicate that silently
// means something else.
func decodePredicate(r *wireReader, schema *relation.Schema) relation.Predicate {
	n := r.count("conditions", 3)
	p := relation.Predicate{}
	for i := 0; i < n; i++ {
		attr := r.uvarint()
		kind := r.u8()
		if r.err != nil {
			return relation.Predicate{}
		}
		if attr >= uint64(schema.Len()) {
			r.fail("cluster: predicate attribute %d outside schema (%d attrs)", attr, schema.Len())
			return relation.Predicate{}
		}
		a := schema.Attr(int(attr))
		if kind == 1 {
			nc := r.count("categories", 1)
			cats := make([]int, 0, nc)
			for j := 0; j < nc; j++ {
				code := r.uvarint()
				if code >= uint64(len(a.Categories)) {
					r.fail("cluster: category code %d outside %q (%d categories)", code, a.Name, len(a.Categories))
					return relation.Predicate{}
				}
				cats = append(cats, int(code))
			}
			if r.err != nil {
				return relation.Predicate{}
			}
			if a.Kind != relation.Categorical {
				r.fail("cluster: categorical condition on numeric attribute %q", a.Name)
				return relation.Predicate{}
			}
			p = p.WithCategories(int(attr), cats)
			continue
		}
		iv := relation.Interval{Lo: r.f64(), Hi: r.f64()}
		flags := r.u8()
		iv.LoOpen = flags&1 != 0
		iv.HiOpen = flags&2 != 0
		if r.err != nil {
			return relation.Predicate{}
		}
		if a.Kind != relation.Numeric {
			r.fail("cluster: numeric condition on categorical attribute %q", a.Name)
			return relation.Predicate{}
		}
		p = p.WithInterval(int(attr), iv)
	}
	return p
}

// --- tuples ---

// appendTuples encodes an answer's tuple set: the value width (so the
// decoder validates against its schema before allocating), the tuple
// count, then per tuple the ID and the bit-exact values.
func appendTuples(w *wireWriter, ts []relation.Tuple, width int) {
	w.grow(20 + len(ts)*(10+8*width))
	w.uvarint(uint64(width))
	w.uvarint(uint64(len(ts)))
	for _, t := range ts {
		w.uvarint(uint64(t.ID))
		for _, v := range t.Values {
			w.f64(v)
		}
	}
}

// decodeTuples reconstructs a tuple set, requiring the wire width to
// match the receiver's schema exactly.
func decodeTuples(r *wireReader, schema *relation.Schema) []relation.Tuple {
	width := r.uvarint()
	if r.err != nil {
		return nil
	}
	if width != uint64(schema.Len()) {
		r.fail("cluster: wire tuples have %d values, schema has %d", width, schema.Len())
		return nil
	}
	n := r.count("tuples", 1+8*int(width))
	if r.err != nil || n == 0 {
		return nil
	}
	// One backing array for every tuple's values: n+1 allocations would
	// otherwise dominate the per-entry decode cost on the hot forward path.
	backing := make([]float64, n*int(width))
	out := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		vals := backing[i*int(width) : (i+1)*int(width) : (i+1)*int(width)]
		t := relation.Tuple{ID: int64(r.uvarint()), Values: vals}
		for j := range vals {
			vals[j] = r.f64()
		}
		if r.err != nil {
			return nil
		}
		out = append(out, t)
	}
	return out
}

// --- region scope ---

// rectDoc is the wire form of a region.Rect, in frames and in the JSON
// /cluster/ring document alike. Interval bounds travel as IEEE-754 bit
// patterns (uint64) because JSON cannot represent ±Inf; Flags packs the
// open-endpoint bits (1 = LoOpen, 2 = HiOpen) per dimension. A peer that
// cannot express or decode the rect simply drops it, and the adoption
// falls back to a full wipe.
type rectDoc struct {
	Attrs []int    `json:"attrs"`
	Lo    []uint64 `json:"lo"`
	Hi    []uint64 `json:"hi"`
	Flags []byte   `json:"flags,omitempty"`
}

// encodeRect serialises a rect for the wire.
func encodeRect(r region.Rect) *rectDoc {
	d := &rectDoc{
		Attrs: append([]int(nil), r.Attrs...),
		Lo:    make([]uint64, len(r.Ivs)),
		Hi:    make([]uint64, len(r.Ivs)),
		Flags: make([]byte, len(r.Ivs)),
	}
	for i, iv := range r.Ivs {
		d.Lo[i] = math.Float64bits(iv.Lo)
		d.Hi[i] = math.Float64bits(iv.Hi)
		if iv.LoOpen {
			d.Flags[i] |= 1
		}
		if iv.HiOpen {
			d.Flags[i] |= 2
		}
	}
	return d
}

// rect reconstructs the region, failing on malformed documents so the
// caller can fall back to a full-wipe adoption.
func (d *rectDoc) rect() (region.Rect, error) {
	if d == nil || len(d.Attrs) != len(d.Lo) || len(d.Lo) != len(d.Hi) {
		return region.Rect{}, fmt.Errorf("cluster: malformed rect document")
	}
	ivs := make([]relation.Interval, len(d.Attrs))
	for i := range d.Attrs {
		iv := relation.Interval{Lo: math.Float64frombits(d.Lo[i]), Hi: math.Float64frombits(d.Hi[i])}
		if i < len(d.Flags) {
			iv.LoOpen = d.Flags[i]&1 != 0
			iv.HiOpen = d.Flags[i]&2 != 0
		}
		ivs[i] = iv
	}
	return region.New(d.Attrs, ivs)
}

// appendScope encodes an optional region rect (nil = unscoped). The
// shape mirrors rectDoc: bit-pattern bounds, open-endpoint flags.
func appendScope(w *wireWriter, sc *rectDoc) {
	if sc == nil || len(sc.Attrs) != len(sc.Lo) || len(sc.Lo) != len(sc.Hi) {
		w.u8(0)
		return
	}
	w.u8(1)
	w.uvarint(uint64(len(sc.Attrs)))
	for i, a := range sc.Attrs {
		w.uvarint(uint64(a))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, sc.Lo[i])
		w.buf = binary.LittleEndian.AppendUint64(w.buf, sc.Hi[i])
		var f byte
		if i < len(sc.Flags) {
			f = sc.Flags[i]
		}
		w.u8(f)
	}
}

// decodeScope reads an optional rect. A malformed scope fails the frame
// (transport integrity); whether a *missing* scope means full wipe is
// the adopter's business.
func decodeScope(r *wireReader) *rectDoc {
	if r.u8() == 0 || r.err != nil {
		return nil
	}
	n := r.count("scope dimensions", 18)
	if r.err != nil {
		return nil
	}
	d := &rectDoc{
		Attrs: make([]int, n),
		Lo:    make([]uint64, n),
		Hi:    make([]uint64, n),
		Flags: make([]byte, n),
	}
	for i := 0; i < n; i++ {
		d.Attrs[i] = int(r.uvarint())
		if r.remaining() < 16 {
			r.fail("cluster: truncated scope bounds")
			return nil
		}
		d.Lo[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		d.Hi[i] = binary.LittleEndian.Uint64(r.buf[r.off+8:])
		r.off += 16
		d.Flags[i] = r.u8()
	}
	if r.err != nil {
		return nil
	}
	return d
}

// --- span subtree ---

// appendSubtree encodes an optional owner-side span subtree (nil = the
// caller did not ask, or nothing was recorded).
func appendSubtree(w *wireWriter, st *obs.Subtree) {
	if st == nil || len(st.Spans) == 0 {
		w.u8(0)
		return
	}
	w.u8(1)
	w.str(st.Replica)
	w.uvarint(uint64(len(st.Spans)))
	for _, sp := range st.Spans {
		w.u8(sp.G)
		w.u8(sp.O)
		w.uvarint(clampU64(sp.S))
		w.uvarint(clampU64(sp.D))
		w.uvarint(clampU64(int64(sp.Q)))
		w.str(sp.R)
		w.u8(sp.L)
	}
}

func clampU64(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// decodeSubtree reads an optional span subtree. Out-of-range stages and
// outcomes are not judged here — obs.Trace.Stitch already validates and
// drops them, and keeping one validator avoids the two drifting.
func decodeSubtree(r *wireReader) *obs.Subtree {
	if r.u8() == 0 || r.err != nil {
		return nil
	}
	st := &obs.Subtree{Replica: r.str()}
	n := r.count("spans", 7)
	if r.err != nil {
		return nil
	}
	st.Spans = make([]obs.WireSpan, 0, n)
	for i := 0; i < n; i++ {
		sp := obs.WireSpan{
			G: r.u8(),
			O: r.u8(),
			S: int64(r.uvarint()),
			D: int64(r.uvarint()),
			Q: int(r.uvarint()),
			R: r.str(),
			L: r.u8(),
		}
		if r.err != nil {
			return nil
		}
		st.Spans = append(st.Spans, sp)
	}
	return st
}

// --- op payloads ---

// appendGetEntry encodes one residency lookup as it travels inside an
// opGet payload (and as each length-prefixed entry of opBatchGet): the
// namespace, the caller's epoch seq and its transition scope, whether
// the caller wants the owner's span subtree, then the predicate.
func appendGetEntry(w *wireWriter, ns string, seq uint64, scope *rectDoc, wantTrace bool, p relation.Predicate) {
	w.str(ns)
	w.uvarint(seq)
	appendScope(w, scope)
	w.bool(wantTrace)
	appendPredicate(w, p)
}

// getResponse is one lookup's answer as it travels inside opGetResp (and
// as each entry of opBatchResp).
type getResponse struct {
	found    bool
	overflow bool
	eseq     uint64
	scope    *rectDoc
	tuples   []relation.Tuple
	trace    *obs.Subtree
}

// appendGetResponse encodes one lookup answer.
func appendGetResponse(w *wireWriter, resp getResponse, width int) {
	w.bool(resp.found)
	w.bool(resp.overflow)
	w.uvarint(resp.eseq)
	appendScope(w, resp.scope)
	if resp.found {
		appendTuples(w, resp.tuples, width)
	}
	appendSubtree(w, resp.trace)
}

// decodeGetResponse decodes one lookup answer against the caller's
// schema.
func decodeGetResponse(r *wireReader, schema *relation.Schema) getResponse {
	resp := getResponse{
		found:    r.bool(),
		overflow: r.bool(),
		eseq:     r.uvarint(),
		scope:    decodeScope(r),
	}
	if resp.found {
		resp.tuples = decodeTuples(r, schema)
	}
	resp.trace = decodeSubtree(r)
	return resp
}

// resultOf converts a decoded response into the caller-facing result.
func (g getResponse) resultOf() hidden.Result {
	return hidden.Result{Tuples: g.tuples, Overflow: g.overflow}
}

// wireError is an opErr payload decoded into an error. Codes follow the
// HTTP families so the existing indictment policy — 5xx indicts the
// peer, 4xx and the stale-epoch refusal indict only the request — maps
// over unchanged.
type wireError struct {
	code int
	msg  string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("cluster: peer error %d: %s", e.code, e.msg)
}

// appendErrFrame builds a complete opErr frame for a request id.
func appendErrFrame(w *wireWriter, id uint64, code int, msg string) {
	start := beginFrame(w, opErr, 0, id)
	w.uvarint(uint64(code))
	w.str(msg)
	endFrame(w, start)
}

// beginFrame reserves the length prefix and writes the frame header,
// returning the offset endFrame patches the length into.
func beginFrame(w *wireWriter, op, flags byte, id uint64) int {
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.u8(op)
	w.u8(flags)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, id)
	return start
}

// endFrame patches the frame's length prefix.
func endFrame(w *wireWriter, start int) {
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(w.buf)-start-4))
}

// frame is one decoded frame header plus its payload, which aliases the
// connection's read buffer — valid only until the next read.
type frame struct {
	op      byte
	flags   byte
	id      uint64
	payload []byte
}

// parseFrame splits a length-delimited frame body (everything after the
// 4-byte length prefix) into header and payload.
func parseFrame(body []byte) (frame, error) {
	if len(body) < frameHeaderLen {
		return frame{}, fmt.Errorf("cluster: frame body %d bytes, header needs %d", len(body), frameHeaderLen)
	}
	return frame{
		op:      body[0],
		flags:   body[1],
		id:      binary.LittleEndian.Uint64(body[2:10]),
		payload: body[frameHeaderLen:],
	}, nil
}
