package cluster

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
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
// Integers inside payloads are unsigned varints; strings and byte blobs
// are length-prefixed with a varint bounded by the bytes remaining in the
// frame, so a hostile length prefix can never force an over-allocation.
// Tuples, predicates and region scopes use internal/wire's layouts and
// are decoded against the receiver's schema for the namespace. A
// predicate travels length-prefixed as its canonical cache key, so both
// ends derive the identical key and ring owner; a scope is a presence
// byte followed by a wire rect.
//
// Op table (see doc.go "Peer protocol" for the full semantics):
//
//	opHello      1   client → server: magic, highest supported version, self id
//	opHelloAck   2   server → client: negotiated version, self id
//	opGet        3   residency lookup (ns, caller epoch+scope, predicate)
//	opGetResp    4   found/overflow, owner epoch+scope, tuples, span subtree
//	opPut        5   answer admission (ns, produced-under epoch+scope, predicate, tuples)
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
	// protoVersion is this binary's protocol version — the only one it
	// speaks; a hello or ack announcing anything below it fails the
	// handshake, so replicas on different wire formats never exchange a
	// frame.
	protoVersion = 3
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

// --- region scope ---

// appendScope encodes an optional region scope (nil = unscoped): a
// presence byte, then the wire rect.
func appendScope(w *wireWriter, sc *region.Rect) {
	w.bool(sc != nil)
	if sc != nil {
		w.buf = wire.AppendRect(w.buf, *sc)
	}
}

// readScope reads an optional region scope. A malformed scope fails the
// frame (transport integrity); whether a missing scope means a full wipe
// is the adopter's business.
func readScope(r *wire.Reader, schema *relation.Schema) *region.Rect {
	if !r.Bool() {
		return nil
	}
	sc := r.Rect(schema)
	if r.Err() != nil {
		return nil
	}
	return &sc
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
func decodeSubtree(r *wire.Reader) *obs.Subtree {
	if !r.Bool() {
		return nil
	}
	st := &obs.Subtree{Replica: r.Str()}
	n := r.Count("spans", 7)
	if r.Err() != nil {
		return nil
	}
	st.Spans = make([]obs.WireSpan, 0, n)
	for i := 0; i < n; i++ {
		sp := obs.WireSpan{
			G: r.U8(),
			O: r.U8(),
			S: int64(r.Uvarint()),
			D: int64(r.Uvarint()),
			Q: int(r.Uvarint()),
			R: r.Str(),
			L: r.U8(),
		}
		if r.Err() != nil {
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
// the caller wants the owner's span subtree, then the predicate as its
// canonical key.
func appendGetEntry(w *wireWriter, ns string, seq uint64, scope *region.Rect, wantTrace bool, key string) {
	w.str(ns)
	w.uvarint(seq)
	appendScope(w, scope)
	w.bool(wantTrace)
	w.str(key)
}

// getResponse is one lookup's answer as it travels inside opGetResp (and
// as each entry of opBatchResp).
type getResponse struct {
	found    bool
	overflow bool
	eseq     uint64
	scope    *region.Rect
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
		w.buf = wire.AppendTuples(w.buf, resp.tuples, width)
	}
	appendSubtree(w, resp.trace)
}

// decodeGetResponse decodes one lookup answer against the caller's
// schema.
func decodeGetResponse(r *wire.Reader, schema *relation.Schema) getResponse {
	resp := getResponse{
		found:    r.Bool(),
		overflow: r.Bool(),
		eseq:     r.Uvarint(),
		scope:    readScope(r, schema),
	}
	if resp.found {
		resp.tuples = r.Tuples(schema)
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
