package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

// The server half of the peer protocol. A peer opens a session by
// sending an ordinary HTTP request to GET /cluster/v2 with
// `Upgrade: qr2-peer/2` on the replica's one listen address; this
// handler hijacks the connection, answers 101 Switching Protocols,
// completes the hello / helloAck handshake, and then serves binary
// frames until the peer goes away.
//
// Ops are handled sequentially per connection: every handler is local
// memory work (a cache Peek, an admission), so there is nothing to
// overlap, and responses pipeline behind each other on the wire.
// Concurrency comes from the connection pool, not from per-frame
// goroutines.
//
// Error discipline mirrors the codec's: a frame-layer violation (bad
// length prefix, truncated stream) kills the connection — framing is
// lost; a payload-level failure (unknown op, malformed predicate,
// unknown namespace) answers opErr for that request id and keeps
// serving, so one bad request — or a newer peer's unknown op — cannot
// sever a link carrying other callers' traffic.

// Register mounts the node on a mux: the Upgrade endpoint the data plane
// (get, put, batchGet) rides, and the control plane's plain HTTP GETs —
// /cluster/ring always, /cluster/obs when Config.Snapshot is set.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/v2", n.handleV2)
	mux.HandleFunc("GET /cluster/ring", n.handleRing)
	if n.snapshotFn != nil {
		mux.HandleFunc("GET /cluster/obs", n.handleObs)
	}
}

// handleV2 opens a peer session on the ordinary HTTP listener.
func (n *Node) handleV2(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != upgradeProto {
		http.Error(w, fmt.Sprintf("cluster: unsupported upgrade %q", r.Header.Get("Upgrade")), http.StatusBadRequest)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "cluster: connection cannot be hijacked", http.StatusInternalServerError)
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "cluster: hijack failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	n.trackV2Conn(conn)
	defer n.untrackV2Conn(conn)
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.transport.rpcTimeout))
	_, err = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		upgradeProto + "\r\nConnection: Upgrade\r\n\r\n")
	if err == nil {
		err = rw.Flush()
	}
	if err != nil {
		return
	}
	// Handshake: the magic pins "this really is a QR2 peer"; the ack
	// always names protoVersion, the one version this binary speaks.
	f, err := readFrame(rw.Reader)
	if err != nil || f.op != opHello {
		return
	}
	hr := wire.NewReader(f.payload)
	magic := hr.Str()
	version := hr.Uvarint()
	hr.Str() // peer's self id; informational
	if hr.Err() != nil || magic != protoMagic || version < protoVersion {
		return
	}
	var ack wireWriter
	start := beginFrame(&ack, opHelloAck, 0, f.id)
	ack.uvarint(protoVersion)
	ack.str(n.self)
	endFrame(&ack, start)
	if _, err := conn.Write(ack.buf); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})
	n.serveV2(conn, rw.Reader)
}

// serveV2 is the frame loop of one established v2 connection. The loop
// owns two scratch buffers — one the request frames land in, one the
// responses are built in — so a warm connection serves without
// per-frame allocations on either side of the handler. Reuse is sound
// because every handler fully consumes its payload before returning
// (decoded values are copies, never payload subslices) and the response
// is written before the next read.
func (n *Node) serveV2(c net.Conn, br *bufio.Reader) {
	t := n.transport
	var rbuf, wbuf []byte
	for {
		var f frame
		var err error
		f, rbuf, err = readFrameReuse(br, rbuf)
		if err != nil {
			return // connection closed, or framing lost — either way, done
		}
		t.framesRecv.Add(1)
		out := n.v2Serve(f, wbuf[:0])
		// The write budget matches the client's RPC timeout.
		_ = c.SetWriteDeadline(time.Now().Add(t.rpcTimeout))
		if _, err := c.Write(out); err != nil {
			return
		}
		if cap(out) > cap(wbuf) {
			wbuf = out
		}
		t.framesSent.Add(1)
	}
}

// v2Serve answers one request frame, building the response in scratch
// where the op's handler supports it.
func (n *Node) v2Serve(f frame, scratch []byte) []byte {
	switch f.op {
	case opGet:
		return n.v2ServeGet(f, scratch)
	case opBatchGet:
		return n.v2ServeBatch(f, scratch)
	case opPut:
		return n.v2ServePut(f)
	default:
		var w wireWriter
		appendErrFrame(&w, f.id, http.StatusBadRequest, fmt.Sprintf("unknown op %d", f.op))
		return w.buf
	}
}

// v2Lookup serves one residency lookup entry (the body of opGet, or one
// batch entry): decode, adopt the caller's epoch — the wipe completes
// before the Peek, so the caller sees found=false from the post-change
// cache rather than a stale answer — read the local epoch BEFORE the
// Peek, so an answer is never tagged with an epoch newer than the
// residency it came from, and package the response. A wireError return
// maps to an opErr frame or a batch-entry error status.
func (n *Node) v2Lookup(payload []byte) (getResponse, int, *wireError) {
	n.peerGets.Add(1)
	rd := wire.NewReader(payload)
	ns := rd.Str()
	if rd.Err() != nil {
		return getResponse{}, 0, &wireError{code: http.StatusBadRequest, msg: rd.Err().Error()}
	}
	cs, ok := n.source(ns)
	if !ok {
		return getResponse{}, 0, &wireError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown namespace %q", ns)}
	}
	eseq := rd.Uvarint()
	scope := readScope(rd, cs.Schema())
	wantTrace := rd.Bool()
	pred := rd.Predicate(cs.Schema())
	if err := rd.Finish(); err != nil {
		return getResponse{}, 0, &wireError{code: http.StatusBadRequest, msg: err.Error()}
	}
	n.observeScoped(ns, eseq, scope)
	seq, scopeOut := n.epochOf(ns)
	// The lookup is timed only when the caller wants the span — two
	// clock reads per entry are visible at wire speed.
	var began time.Time
	if wantTrace {
		began = time.Now()
	}
	// Shared peek: the tuples only flow into the response encoder below,
	// never escape this frame's handling, and are not mutated.
	res, found := cs.cache.PeekShared(pred)
	if found {
		n.peerGetHits.Add(1)
	}
	resp := getResponse{found: found, overflow: res.Overflow, eseq: seq, scope: scopeOut, tuples: res.Tuples}
	if wantTrace {
		// No per-request context exists on a persistent connection, so
		// the owner-side subtree is built directly: one pool_lookup span.
		resp.trace = &obs.Subtree{Replica: n.self, Spans: []obs.WireSpan{{
			G: uint8(obs.StagePoolLookup),
			O: uint8(hitMiss(found)),
			D: time.Since(began).Nanoseconds(),
		}}}
	}
	return resp, cs.Schema().Len(), nil
}

// v2ServeGet answers one opGet frame into scratch (which may be nil).
func (n *Node) v2ServeGet(f frame, scratch []byte) []byte {
	w := wireWriter{buf: scratch}
	w.grow(512)
	resp, width, werr := n.v2Lookup(f.payload)
	if werr != nil {
		appendErrFrame(&w, f.id, werr.code, werr.msg)
		return w.buf
	}
	start := beginFrame(&w, opGetResp, 0, f.id)
	appendGetResponse(&w, resp, width)
	endFrame(&w, start)
	return w.buf
}

// v2ServeBatch answers one opBatchGet frame into scratch (which may be
// nil): each entry is served independently and its answer (or error)
// travels back positionally, so one unknown namespace in a coalesced
// burst fails only its own caller.
func (n *Node) v2ServeBatch(f frame, scratch []byte) []byte {
	rd := wire.NewReader(f.payload)
	cnt := rd.Count("batch entries", 2)
	if cnt > maxBatchWire {
		rd.Fail("cluster: batch of %d exceeds cap %d", cnt, maxBatchWire)
	}
	entries := make([][]byte, 0, cnt)
	for i := 0; i < cnt && rd.Err() == nil; i++ {
		entries = append(entries, rd.Blob())
	}
	if err := rd.Finish(); err != nil {
		var w wireWriter
		appendErrFrame(&w, f.id, http.StatusBadRequest, err.Error())
		return w.buf
	}
	w := wireWriter{buf: scratch}
	w.grow(32 + 512*len(entries))
	start := beginFrame(&w, opBatchResp, 0, f.id)
	w.uvarint(uint64(len(entries)))
	sub := wireWriter{buf: make([]byte, 0, 512)}
	for _, e := range entries {
		sub.buf = sub.buf[:0]
		resp, width, werr := n.v2Lookup(e)
		if werr != nil {
			w.u8(1)
			sub.uvarint(uint64(werr.code))
			sub.str(werr.msg)
		} else {
			w.u8(0)
			appendGetResponse(&sub, resp, width)
		}
		w.bytes(sub.buf)
	}
	endFrame(&w, start)
	return w.buf
}

// v2ServePut answers one opPut frame through admitFromPeer, which owns
// the epoch gate (stale rejection, adopt-then-admit, untagged bypass).
func (n *Node) v2ServePut(f frame) []byte {
	var w wireWriter
	rd := wire.NewReader(f.payload)
	ns := rd.Str()
	if rd.Err() != nil {
		appendErrFrame(&w, f.id, http.StatusBadRequest, rd.Err().Error())
		return w.buf
	}
	cs, ok := n.source(ns)
	if !ok {
		appendErrFrame(&w, f.id, http.StatusNotFound, fmt.Sprintf("unknown namespace %q", ns))
		return w.buf
	}
	seq := rd.Uvarint()
	scope := readScope(rd, cs.Schema())
	wantTrace := rd.Bool()
	overflow := rd.Bool()
	pred := rd.Predicate(cs.Schema())
	tuples := rd.Tuples(cs.Schema())
	if err := rd.Finish(); err != nil {
		appendErrFrame(&w, f.id, http.StatusBadRequest, err.Error())
		return w.buf
	}
	began := time.Now()
	status, msg := n.admitFromPeer(cs, ns, pred, hidden.Result{Overflow: overflow, Tuples: tuples}, seq, scope)
	var st *obs.Subtree
	if wantTrace && status == putStatusOK {
		st = &obs.Subtree{Replica: n.self, Spans: []obs.WireSpan{{
			G: uint8(obs.StageEpochFence),
			O: uint8(obs.OutcomeOK),
			D: time.Since(began).Nanoseconds(),
		}}}
	}
	start := beginFrame(&w, opPutResp, 0, f.id)
	w.u8(byte(status))
	w.str(msg)
	appendSubtree(&w, st)
	endFrame(&w, start)
	return w.buf
}

// admitFromPeer is the peer-admission core. An untagged put (seq 0: the
// sender has no epoch registry) bypasses the gate entirely, mirroring
// the send side where seqOf==0 sends no tag — rejecting it would starve
// owners of every answer such peers compute. A put tagged below the
// local epoch is refused as stale (the answer may describe the
// pre-change database, and the wipe that accompanied the bump must stay
// clean); a sender ahead is adopted — wiping local pre-change state,
// only the scoped slice when it carried a rect — before its post-change
// answer is admitted.
func (n *Node) admitFromPeer(cs *clusterSource, ns string, pred relation.Predicate, res hidden.Result, seq uint64, scope *region.Rect) (int, string) {
	epochGated := false
	if local := n.seqOf(ns); local > 0 && seq > 0 {
		if seq < local {
			n.peerStalePuts.Add(1)
			return putStatusStale, fmt.Sprintf("stale epoch %d for %q (now %d)", seq, ns, local)
		}
		if seq > local {
			n.observeScoped(ns, seq, scope)
		}
		epochGated = true
	}
	n.peerPuts.Add(1)
	if epochGated {
		// Fenced on the produced-under epoch: a bump landing between the
		// staleness check above and the insert drops the admission inside
		// the cache's own locks instead of racing the wipe.
		cs.cache.AdmitAt(pred, res, seq)
	} else {
		cs.cache.Admit(pred, res)
	}
	// This admission may have landed here only because this replica is
	// the ring successor of a dead true owner; track it so the re-homing
	// pass moves it when the owner recovers.
	if n.health.anyDead() {
		key := qcache.KeyOf(pred)
		if trueOwner, ok := n.ring.Owner(ns+"\x00"+key, nil); ok && trueOwner != n.self {
			n.noteStray(ns, key, pred)
		}
	}
	return putStatusOK, ""
}

// hitMiss maps a residency probe's found flag to its span outcome.
func hitMiss(found bool) obs.Outcome {
	if found {
		return obs.OutcomeHit
	}
	return obs.OutcomeMiss
}

// trackV2Conn registers an established v2 server connection so
// CloseV2Conns can sever it.
func (n *Node) trackV2Conn(c net.Conn) {
	n.v2mu.Lock()
	if n.v2conns == nil {
		n.v2conns = make(map[net.Conn]struct{})
	}
	n.v2conns[c] = struct{}{}
	n.v2mu.Unlock()
}

func (n *Node) untrackV2Conn(c net.Conn) {
	n.v2mu.Lock()
	delete(n.v2conns, c)
	n.v2mu.Unlock()
}

// CloseV2Conns severs every established v2 server connection. Hijacked
// connections outlive their HTTP server's Close (the server forgets
// them at the hijack), so simulating or executing a replica's death
// must sever them explicitly — peers' in-flight frames then replay on
// a fresh dial, whose refusal is what indicts the replica.
func (n *Node) CloseV2Conns() {
	n.v2mu.Lock()
	conns := make([]net.Conn, 0, len(n.v2conns))
	for c := range n.v2conns {
		conns = append(conns, c)
	}
	n.v2mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close releases the node's long-lived transport state: pooled client
// connections and established v2 server connections. The node remains
// usable afterwards (connections re-dial on demand); Close exists so
// tests and shutdowns don't leak sockets and serve loops.
func (n *Node) Close() {
	n.transport.close()
	n.CloseV2Conns()
}
