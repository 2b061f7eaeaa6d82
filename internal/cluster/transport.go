package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The client half of the peer protocol (see codec.go for the wire format
// and doc.go for the protocol narrative). Each peer gets a small pool of
// persistent connections; request IDs multiplex concurrent RPCs over
// them, so responses return in completion order. Forwarded lookups
// additionally pass through a per-peer group-commit batcher: the first
// caller to arrive while no flush is running becomes the flusher and
// writes its own frame inline (the serial fast path costs no handoff),
// and callers arriving while that write syscall is in flight queue up
// and leave in the next flush as one opBatchGet frame.
//
// This transport is the only carrier of get, put and batchGet: a failure
// here is a failure of the RPC. v2client.go turns it into the ladder —
// one replay when an established connection was lost, a peer-indicting
// error for everything else — and the node degrades to local serving.

const (
	// upgradeProto is the Upgrade token that opens a peer session on a
	// replica's ordinary HTTP listener: the peer answers 101 and the
	// connection switches to binary frames; anything else (503 from a
	// down replica, 404 from a foreign binary) fails the dial.
	upgradeProto = "qr2-peer/2"
	// dialRetryTTL spaces re-dials after a failed dial so a dead peer
	// doesn't eat a connect attempt per forward.
	dialRetryTTL = time.Second
	// DefaultPeerConns is the per-peer connection pool size.
	DefaultPeerConns = 2
	// DefaultMaxBatch caps how many queued lookups one flush coalesces
	// into a single opBatchGet frame.
	DefaultMaxBatch = 64
)

// transportError marks transport-level failures — dial errors, a
// connection dying with requests in flight, response timeouts, malformed
// responses. lost is set only when an established connection died under
// the request (severed, write failed): the peer may merely have
// restarted, so that one case earns a replay before the peer is
// indicted.
type transportError struct {
	err  error
	lost bool
}

func (e *transportError) Error() string { return "cluster: v2 transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isConnLost reports whether err is an established connection dying
// with the request in flight.
func isConnLost(err error) bool {
	var te *transportError
	return errors.As(err, &te) && te.lost
}

// OccupancyBounds is the batch-occupancy histogram layout: frames
// carrying 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, and 65+ lookups. Exported
// so /metrics can emit TransportStats.BatchOccupancy as a Prometheus
// histogram with matching le labels.
var OccupancyBounds = []string{"1", "2", "4", "8", "16", "32", "64", "+Inf"}

func occBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	case n <= 64:
		return 6
	default:
		return 7
	}
}

// TransportStats is a point-in-time snapshot of the v2 transport.
type TransportStats struct {
	// FramesSent / FramesRecv count frames both roles moved: RPCs this
	// replica issued and responses it received, plus requests its v2
	// server handled and answers it wrote.
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	// BatchesSent counts opBatchGet frames (≥2 coalesced lookups);
	// BatchedGets the lookups that travelled inside them.
	BatchesSent int64 `json:"batches_sent"`
	BatchedGets int64 `json:"batched_gets"`
	// BatchOccupancy histograms flush sizes: le-1, 2, 4, 8, 16, 32, 64,
	// +Inf (see OccupancyBounds).
	BatchOccupancy []int64 `json:"batch_occupancy"`
	// HTTPFallbacks is never incremented — there is no HTTP data path to
	// fall back to. It stays because bench/scrape.go reads it and bench/
	// changes only in benchmark PRs (ROADMAP lists its removal).
	HTTPFallbacks int64 `json:"http_fallbacks"`
	// V2Dials / V2DialFails count persistent-connection dials.
	V2Dials     int64 `json:"v2_dials"`
	V2DialFails int64 `json:"v2_dial_fails"`
	// Peers reports each peer's live pooled conns.
	Peers []PeerTransportStats `json:"peers,omitempty"`
}

// PeerTransportStats is one peer's transport state.
type PeerTransportStats struct {
	ID    string `json:"id"`
	Conns int    `json:"conns"`
}

// transport owns the client state for every peer plus the shared
// counters (the frame server increments the frame counters too, so one
// snapshot describes both roles).
type transport struct {
	node       *Node
	rpcTimeout time.Duration
	poolSize   int
	maxBatch   int
	// batchWindow > 0 makes each flusher linger before draining,
	// trading latency for bigger batches. 0 (the default) is pure
	// group commit: batches form only from arrivals during the
	// in-flight write, which costs serial callers nothing.
	batchWindow time.Duration

	peers map[string]*peerTransport // immutable after construction

	framesSent  atomic.Int64
	framesRecv  atomic.Int64
	batchesSent atomic.Int64
	batchedGets atomic.Int64
	occupancy   [8]atomic.Int64
	v2Dials     atomic.Int64
	v2DialFails atomic.Int64
}

// newTransport builds the per-peer client state, rejecting a peer whose
// URL cannot be dialled: the session opens with an Upgrade on a plain
// TCP connection, so anything but http://host:port would leave the peer
// permanently unreachable.
func newTransport(n *Node, cfg Config) (*transport, error) {
	t := &transport{
		node:        n,
		rpcTimeout:  2 * time.Second,
		poolSize:    cfg.PeerConns,
		maxBatch:    cfg.MaxBatch,
		batchWindow: cfg.BatchWindow,
		peers:       make(map[string]*peerTransport),
	}
	if n.hc.Timeout > 0 {
		t.rpcTimeout = n.hc.Timeout
	}
	if t.poolSize <= 0 {
		t.poolSize = DefaultPeerConns
	}
	if t.maxBatch <= 0 {
		t.maxBatch = DefaultMaxBatch
	}
	if t.maxBatch > maxBatchWire {
		t.maxBatch = maxBatchWire
	}
	for id, raw := range n.urls {
		if id == n.self {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q URL %q is not http://host:port", id, raw)
		}
		pt := &peerTransport{t: t, id: id, addr: u.Host}
		pt.slots = make([]*connSlot, t.poolSize)
		for i := range pt.slots {
			pt.slots[i] = &connSlot{pt: pt}
		}
		t.peers[id] = pt
	}
	return t, nil
}

// reset clears a peer's dial backoff — the health prober calls it on
// revive, so the first forward after a restart dials immediately.
func (t *transport) reset(id string) {
	if pt := t.peers[id]; pt != nil {
		pt.mu.Lock()
		pt.retryAt = time.Time{}
		pt.gen++
		pt.mu.Unlock()
	}
}

// close tears down every pooled connection (tests and shutdown).
func (t *transport) close() {
	for _, pt := range t.peers {
		for _, s := range pt.slots {
			s.mu.Lock()
			if s.pc != nil {
				s.pc.fail(&transportError{err: errors.New("transport closed"), lost: true})
				s.pc = nil
			}
			s.mu.Unlock()
		}
	}
}

// stats snapshots the transport counters.
func (t *transport) stats() *TransportStats {
	st := &TransportStats{
		FramesSent:  t.framesSent.Load(),
		FramesRecv:  t.framesRecv.Load(),
		BatchesSent: t.batchesSent.Load(),
		BatchedGets: t.batchedGets.Load(),
		V2Dials:     t.v2Dials.Load(),
		V2DialFails: t.v2DialFails.Load(),
	}
	st.BatchOccupancy = make([]int64, len(t.occupancy))
	for i := range t.occupancy {
		st.BatchOccupancy[i] = t.occupancy[i].Load()
	}
	for _, id := range t.node.ring.Members() {
		pt := t.peers[id]
		if pt == nil {
			continue
		}
		row := PeerTransportStats{ID: id}
		for _, s := range pt.slots {
			s.mu.Lock()
			if s.pc != nil && !s.pc.isDead() {
				row.Conns++
			}
			s.mu.Unlock()
		}
		st.Peers = append(st.Peers, row)
	}
	return st
}

// peerTransport is one peer's connection pool, dial backoff, and lookup
// batcher.
type peerTransport struct {
	t    *transport
	id   string
	addr string // host:port from the peer's base URL

	mu      sync.Mutex
	retryAt time.Time // no dials before this (backoff after a failed one)
	// gen increments on every reset. A dial records the generation it
	// started under and its backoff applies only if no reset intervened —
	// otherwise a dial that began against the dying process would
	// overwrite the revive and keep the restarted peer undialled for the
	// full TTL.
	gen   uint64
	slots []*connSlot
	next  int

	// The lookup batcher, run with a group-commit discipline: at most one
	// lookup frame is in flight per peer, and that frame's round trip is
	// the collection window for the next one. A lone caller finds nothing
	// in flight and sends immediately (no added latency); concurrent
	// callers arriving during the in-flight RTT queue up and leave
	// together as one opBatchGet when the response lands. flushing marks
	// that some goroutine currently owns the drain loop.
	queue        []*batchCall
	flushing     bool
	inflight     int       // lookup frames awaiting their response (0 or 1)
	inflightConn *peerConn // conn carrying the in-flight frame
}

// connSlot lazily holds one pooled connection. Dials serialize per slot
// (concurrent callers on other slots proceed), and a dead connection is
// replaced on the next acquisition.
type connSlot struct {
	pt *peerTransport
	mu sync.Mutex
	pc *peerConn
}

func (pt *peerTransport) dialBackoff(gen uint64) {
	pt.mu.Lock()
	if pt.gen == gen {
		pt.retryAt = time.Now().Add(dialRetryTTL)
	}
	pt.mu.Unlock()
}

// conn returns a live pooled connection, dialing if the chosen slot's
// connection is absent or dead.
func (pt *peerTransport) conn(ctx context.Context) (*peerConn, error) {
	pt.mu.Lock()
	slot := pt.slots[pt.next%len(pt.slots)]
	pt.next++
	pt.mu.Unlock()
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.pc != nil && !slot.pc.isDead() {
		return slot.pc, nil
	}
	pc, err := pt.dial(ctx)
	if err != nil {
		return nil, err
	}
	slot.pc = pc
	return pc, nil
}

// dial opens one pooled connection, unless a recent dial failed and its
// backoff has not run out. Every failure — refused connect, a non-101
// answer to the Upgrade, a bad hello — counts, arms the backoff and
// returns a transportError the caller maps to a peer-indicting error.
func (pt *peerTransport) dial(ctx context.Context) (*peerConn, error) {
	t := pt.t
	pt.mu.Lock()
	gen, retryAt := pt.gen, pt.retryAt
	pt.mu.Unlock()
	if time.Now().Before(retryAt) {
		return nil, &transportError{err: fmt.Errorf("cluster: %s in backoff after a failed dial", pt.id)}
	}
	t.v2Dials.Add(1)
	pc, err := pt.connect(ctx)
	if err != nil {
		t.v2DialFails.Add(1)
		pt.dialBackoff(gen)
		return nil, &transportError{err: err}
	}
	return pc, nil
}

// connect opens a TCP connection to the peer's ordinary HTTP listener
// and establishes the session: an Upgrade request, a 101 response, then
// a hello / helloAck exchange that pins the magic and version.
func (pt *peerTransport) connect(ctx context.Context) (_ *peerConn, err error) {
	t := pt.t
	d := net.Dialer{Timeout: t.rpcTimeout}
	c, err := d.DialContext(ctx, "tcp", pt.addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	_ = c.SetDeadline(time.Now().Add(t.rpcTimeout))
	req := "GET /cluster/v2 HTTP/1.1\r\nHost: " + pt.addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + upgradeProto + "\r\n\r\n"
	if _, err := c.Write([]byte(req)); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	httpReq, _ := http.NewRequest(http.MethodGet, "http://"+pt.addr+"/cluster/v2", nil)
	resp, err := http.ReadResponse(br, httpReq)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("cluster: %s answered the %s upgrade with %s", pt.id, upgradeProto, resp.Status)
	}
	// Application-level handshake on the upgraded stream.
	var w wireWriter
	start := beginFrame(&w, opHello, 0, 0)
	w.str(protoMagic)
	w.uvarint(protoVersion)
	w.str(t.node.self)
	endFrame(&w, start)
	if _, err := c.Write(w.buf); err != nil {
		return nil, err
	}
	f, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	if f.op != opHelloAck {
		return nil, fmt.Errorf("cluster: handshake got op %d, want helloAck", f.op)
	}
	ar := wire.NewReader(f.payload)
	version := ar.Uvarint()
	ar.Str() // peer's self id; informational
	if ar.Err() != nil || version < protoVersion {
		return nil, fmt.Errorf("cluster: %s acked protocol version %d, want %d", pt.id, version, protoVersion)
	}
	_ = c.SetDeadline(time.Time{})
	pc := &peerConn{pt: pt, c: c, pending: make(map[uint64]*pcall)}
	go pc.readLoop(br)
	return pc, nil
}

// peerConn is one live multiplexed connection: a write mutex serializes
// frame writes, a reader goroutine dispatches responses by request id.
type peerConn struct {
	pt *peerTransport
	c  net.Conn

	wmu    sync.Mutex
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*pcall
	dead    bool
	deadErr error
}

// pcall is one in-flight request: a single round trip delivering into
// ch, or a batch fanning out to its entries. done (set only by the
// batcher) runs exactly once when the call completes — response, whole-
// batch error, or connection death — and releases the peer's in-flight
// slot so the next batch can leave.
type pcall struct {
	ch    chan pcallResult
	batch []*batchCall
	done  func()
}

type pcallResult struct {
	op      byte
	payload []byte
	err     error
}

// batchCall is one forwarded lookup waiting in (or dispatched from) the
// batcher. ch has capacity 1 and receives exactly once, so an abandoned
// caller (context cancelled) never blocks the reader.
type batchCall struct {
	payload []byte
	ch      chan pcallResult
}

// batchCalls recycles batchCall values (and their channels). A call may
// be pooled only after its single delivery was RECEIVED — an abandoned
// call's channel still has a send coming and must go to the collector.
var batchCalls = sync.Pool{}

func acquireBatchCall(payload []byte) *batchCall {
	if bc, _ := batchCalls.Get().(*batchCall); bc != nil {
		bc.payload = payload
		return bc
	}
	return &batchCall{payload: payload, ch: make(chan pcallResult, 1)}
}

func releaseBatchCall(bc *batchCall) {
	bc.payload = nil
	batchCalls.Put(bc)
}

func (pc *peerConn) isDead() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dead
}

// track registers an in-flight request; false means the connection died
// first and the caller must deliver deadErr itself.
func (pc *peerConn) track(id uint64, c *pcall) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return false
	}
	pc.pending[id] = c
	return true
}

// untrack abandons an in-flight request (context cancel, timeout); a
// late response is dropped by the reader.
func (pc *peerConn) untrack(id uint64) {
	pc.mu.Lock()
	delete(pc.pending, id)
	pc.mu.Unlock()
}

// fail kills the connection and delivers err to every in-flight caller —
// the moment that turns a peer death into per-request replays instead
// of dropped callers.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.dead {
		pc.mu.Unlock()
		return
	}
	pc.dead = true
	pc.deadErr = err
	pending := pc.pending
	pc.pending = nil
	pc.mu.Unlock()
	pc.c.Close()
	for _, call := range pending {
		if call.batch != nil {
			failBatch(call.batch, err)
		} else {
			call.ch <- pcallResult{err: err}
		}
		if call.done != nil {
			call.done()
		}
	}
}

func failBatch(batch []*batchCall, err error) {
	for _, bc := range batch {
		bc.ch <- pcallResult{err: err}
	}
}

// send writes one already-framed buffer. A write failure kills the
// connection (delivering the error to all in-flight callers, including
// the one whose frame this was).
func (pc *peerConn) send(buf []byte) error {
	pc.wmu.Lock()
	_ = pc.c.SetWriteDeadline(time.Now().Add(pc.pt.t.rpcTimeout))
	_, err := pc.c.Write(buf)
	pc.wmu.Unlock()
	if err != nil {
		werr := &transportError{err: err, lost: true}
		pc.fail(werr)
		return werr
	}
	pc.pt.t.framesSent.Add(1)
	return nil
}

// readLoop dispatches response frames until the connection dies.
func (pc *peerConn) readLoop(br *bufio.Reader) {
	for {
		f, err := readFrame(br)
		if err != nil {
			pc.fail(&transportError{err: err, lost: true})
			return
		}
		pc.pt.t.framesRecv.Add(1)
		pc.mu.Lock()
		call := pc.pending[f.id]
		delete(pc.pending, f.id)
		pc.mu.Unlock()
		if call == nil {
			continue // caller gave up; late response
		}
		if call.batch != nil {
			deliverBatch(call.batch, f)
		} else {
			call.ch <- pcallResult{op: f.op, payload: f.payload}
		}
		if call.done != nil {
			call.done()
		}
	}
}

// deliverBatch splits one opBatchResp frame back out to the callers
// whose lookups were coalesced into the batch. A whole-batch opErr (or
// a malformed response) fails every entry; a malformed response is a
// transport error, which indicts the peer.
func deliverBatch(batch []*batchCall, f frame) {
	if f.op == opErr {
		failBatch(batch, decodeWireErr(f.payload))
		return
	}
	if f.op != opBatchResp {
		failBatch(batch, &transportError{err: fmt.Errorf("cluster: batch answered with op %d", f.op)})
		return
	}
	r := wire.NewReader(f.payload)
	n := r.Count("batch entries", 2)
	if r.Err() != nil || n != len(batch) {
		failBatch(batch, &transportError{err: fmt.Errorf("cluster: batch of %d answered with %d entries", len(batch), n)})
		return
	}
	for i := 0; i < n; i++ {
		status := r.U8()
		blob := r.Blob()
		if r.Err() != nil {
			for _, bc := range batch[i:] {
				bc.ch <- pcallResult{err: &transportError{err: r.Err()}}
			}
			return
		}
		if status == 0 {
			batch[i].ch <- pcallResult{op: opGetResp, payload: blob}
		} else {
			batch[i].ch <- pcallResult{err: decodeWireErr(blob)}
		}
	}
}

// decodeWireErr decodes an opErr payload (code + message).
func decodeWireErr(payload []byte) error {
	r := wire.NewReader(payload)
	code := r.Uvarint()
	msg := r.Str()
	if r.Err() != nil {
		return &transportError{err: fmt.Errorf("cluster: malformed error frame: %w", r.Err())}
	}
	return &wireError{code: int(code), msg: msg}
}

// readFrame reads one length-delimited frame. Frame-layer violations
// (bad length, truncated stream) are returned as errors and must kill
// the connection: framing is lost.
func readFrame(br *bufio.Reader) (frame, error) {
	f, _, err := readFrameReuse(br, nil)
	return f, err
}

// readFrameReuse is readFrame with a caller-owned scratch buffer: when
// its capacity suffices the frame body lands in it, and the (possibly
// regrown) buffer comes back for the next call. Only loops whose frame
// payloads die before the next read may use it — the server loop does;
// the client read loop hands payload slices across goroutines and must
// not. The length check runs before any allocation, so a hostile
// length prefix cannot make either path over-allocate.
func readFrameReuse(br *bufio.Reader, scratch []byte) (frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame{}, scratch, err
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length < frameHeaderLen || length > maxFrameLen {
		return frame{}, scratch, fmt.Errorf("cluster: frame length %d outside [%d, %d]", length, frameHeaderLen, maxFrameLen)
	}
	body := scratch
	if uint32(cap(body)) < length {
		body = make([]byte, length)
	}
	body = body[:length]
	if _, err := io.ReadFull(br, body); err != nil {
		return frame{}, body, err
	}
	f, err := parseFrame(body)
	return f, body, err
}

// wait blocks for a tracked request's response, honouring the caller's
// context and the transport's RPC timeout.
func (pc *peerConn) wait(ctx context.Context, id uint64, ch chan pcallResult) (pcallResult, error) {
	timer := time.NewTimer(pc.pt.t.rpcTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return pcallResult{}, r.err
		}
		if r.op == opErr {
			return pcallResult{}, decodeWireErr(r.payload)
		}
		return r, nil
	case <-ctx.Done():
		pc.untrack(id)
		return pcallResult{}, ctx.Err()
	case <-timer.C:
		pc.untrack(id)
		return pcallResult{}, &transportError{err: fmt.Errorf("cluster: v2 response timeout from %s", pc.pt.id)}
	}
}

// roundTrip issues one unbatched RPC (put) and waits for its response
// frame.
func (pt *peerTransport) roundTrip(ctx context.Context, op byte, body func(w *wireWriter)) (pcallResult, error) {
	pc, err := pt.conn(ctx)
	if err != nil {
		return pcallResult{}, err
	}
	id := pc.nextID.Add(1)
	call := &pcall{ch: make(chan pcallResult, 1)}
	if !pc.track(id, call) {
		return pcallResult{}, pc.deadErr
	}
	var w wireWriter
	start := beginFrame(&w, op, 0, id)
	body(&w)
	endFrame(&w, start)
	if err := pc.send(w.buf); err != nil {
		return pcallResult{}, err // fail() already delivered to in-flight callers
	}
	return pc.wait(ctx, id, call.ch)
}

// get runs one forwarded lookup through the batcher: enqueue, take the
// flusher role if it is free, then wait for the fan-out. The entry
// payload must be a complete opGet body (ns, epoch, scope, wantTrace,
// predicate).
// rpcTimers recycles timeout timers across lookups; a fresh timer per
// forwarded get is two allocations on the hottest path in the package.
var rpcTimers = sync.Pool{}

// entryBufs recycles the encode buffers forwarded lookups build their
// wire entries in (see v2Get for the reuse condition).
var entryBufs = sync.Pool{}

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := rpcTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer returns a timer whose channel was NOT received from; it
// drains a pending fire so the next acquire starts clean.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	rpcTimers.Put(t)
}

func (pt *peerTransport) get(ctx context.Context, entry []byte) (pcallResult, error) {
	bc := acquireBatchCall(entry)
	pt.mu.Lock()
	pt.queue = append(pt.queue, bc)
	leader := !pt.flushing && pt.inflight == 0
	if leader {
		pt.flushing = true
	}
	pt.mu.Unlock()
	if leader {
		pt.flush(ctx)
	}
	timer := acquireTimer(pt.t.rpcTimeout)
	defer releaseTimer(timer)
	select {
	case r := <-bc.ch:
		releaseBatchCall(bc)
		if r.err != nil {
			return pcallResult{}, r.err
		}
		if r.op == opErr {
			// A single-entry drain travels as a plain opGet, so its error
			// arrives as a raw opErr frame rather than a batch-entry status.
			return pcallResult{}, decodeWireErr(r.payload)
		}
		return r, nil
	case <-ctx.Done():
		return pcallResult{}, ctx.Err()
	case <-timer.C:
		// A frame unanswered for the full RPC timeout means the connection
		// has lost a response: kill it so its in-flight slot releases and
		// queued lookups behind the wedge drain instead of starving.
		pt.mu.Lock()
		wedged := pt.inflightConn
		pt.mu.Unlock()
		err := &transportError{err: fmt.Errorf("cluster: v2 response timeout from %s", pt.id)}
		if wedged != nil {
			wedged.fail(err)
		}
		return pcallResult{}, err
	}
}

// batchDone releases the peer's in-flight slot and, if lookups queued up
// during the round trip, starts the next drain — the hand-off that turns
// one frame's RTT into the next frame's collection window.
func (pt *peerTransport) batchDone() {
	pt.mu.Lock()
	pt.inflight--
	pt.inflightConn = nil
	again := len(pt.queue) > 0 && !pt.flushing && pt.inflight == 0
	if again {
		pt.flushing = true
	}
	pt.mu.Unlock()
	if again {
		// Off the reader goroutine: the drain writes to the socket and
		// must not stall response dispatch behind it.
		go pt.flush(context.Background())
	}
}

// flush drains the queue into frames, stopping as soon as a frame is in
// flight (its completion re-enters via batchDone) or the queue empties.
// With the default zero batch window a lone caller's drain is just its
// own lookup as a plain opGet — nothing slower than an unbatched serial
// call; a positive window makes the flusher linger first, trading that
// first lookup's latency for wider batches.
func (pt *peerTransport) flush(ctx context.Context) {
	if pt.t.batchWindow > 0 {
		time.Sleep(pt.t.batchWindow)
	}
	runtime.Gosched()
	for {
		pt.mu.Lock()
		if len(pt.queue) == 0 || pt.inflight > 0 {
			pt.flushing = false
			pt.mu.Unlock()
			return
		}
		batch := pt.queue
		if len(batch) > pt.t.maxBatch {
			pt.queue = append([]*batchCall(nil), batch[pt.t.maxBatch:]...)
			batch = batch[:pt.t.maxBatch]
		} else {
			pt.queue = nil
		}
		pt.inflight++
		pt.mu.Unlock()
		pt.sendBatch(ctx, batch)
	}
}

// sendBatch encodes one drained batch as a frame — opGet for a single
// lookup, opBatchGet for a coalesced set — and registers the fan-out.
func (pt *peerTransport) sendBatch(ctx context.Context, batch []*batchCall) {
	t := pt.t
	pc, err := pt.conn(ctx)
	if err != nil {
		failBatch(batch, err)
		pt.batchDone()
		return
	}
	id := pc.nextID.Add(1)
	size := frameHeaderLen + 8
	for _, bc := range batch {
		size += 4 + len(bc.payload)
	}
	w := wireWriter{buf: make([]byte, 0, size)}
	var call *pcall
	if len(batch) == 1 {
		start := beginFrame(&w, opGet, 0, id)
		w.buf = append(w.buf, batch[0].payload...)
		endFrame(&w, start)
		call = &pcall{ch: batch[0].ch, done: pt.batchDone}
	} else {
		start := beginFrame(&w, opBatchGet, 0, id)
		w.uvarint(uint64(len(batch)))
		for _, bc := range batch {
			w.bytes(bc.payload)
		}
		endFrame(&w, start)
		call = &pcall{batch: batch, done: pt.batchDone}
		t.batchesSent.Add(1)
		t.batchedGets.Add(int64(len(batch)))
	}
	t.occupancy[occBucket(len(batch))].Add(1)
	if !pc.track(id, call) {
		failBatch(batch, pc.deadErr)
		pt.batchDone()
		return
	}
	pt.mu.Lock()
	pt.inflightConn = pc
	pt.mu.Unlock()
	// A send failure needs no hand-delivery or slot release: fail()
	// inside send already handed the error to everything tracked — this
	// batch included — and ran each call's done hook.
	_ = pc.send(w.buf)
}
