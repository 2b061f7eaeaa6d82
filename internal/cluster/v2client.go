package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// Typed client RPCs over the peer protocol, and the failure ladder every
// one of them descends:
//
//  1. Replay once. A transport error on an established connection — it
//     was severed with the frame in flight, or the write failed — most
//     often means the peer restarted. Lookups and admissions are
//     idempotent, so the same frame is sent once more; the pool redials.
//  2. Indict. A failed dial (refused connect, a non-101 answer to the
//     Upgrade, a bad hello), a response timeout, a malformed response, a
//     5xx-family opErr or a second lost connection returns a
//     peerDownError. Config.Retry may re-run the whole RPC; the caller
//     then marks the peer dead.
//  3. Degrade locally. searchForeign serves the request through the
//     local pool and tracks the answer as a stray for re-homing.
//
// A 4xx-family opErr and a stale-epoch put rejection are request-scoped
// and final: they neither replay nor indict.

// peerDownError marks failures that indict the peer itself — transport
// errors, 5xx-family opErrs, undecodable responses — rather than this
// one request (a 4xx from a healthy peer with a different source set
// must not knock it off the ring; flapping ownership would scatter
// duplicate answers across its successors).
type peerDownError struct{ err error }

func (e *peerDownError) Error() string { return e.err.Error() }
func (e *peerDownError) Unwrap() error { return e.err }

// isPeerDown reports whether err warrants excluding the peer.
func isPeerDown(err error) bool {
	var pd *peerDownError
	return errors.As(err, &pd)
}

// mapWireErr converts a failed RPC into the node's error model: a
// transport failure or a 5xx-family opErr indicts the peer, anything
// else (a 4xx-family opErr, the caller's own context) is returned as is.
func mapWireErr(op, owner string, err error) error {
	var we *wireError
	var te *transportError
	if errors.As(err, &te) || (errors.As(err, &we) && we.code >= http.StatusInternalServerError) {
		return &peerDownError{err: fmt.Errorf("cluster: %s %s: %w", op, owner, err)}
	}
	return err
}

// remoteGet proxies a cache lookup to the owner replica, exchanging
// source epochs both ways: the request carries this replica's seq (so an
// owner that fell behind adopts it and reports a clean miss), and the
// response's seq is adopted here when the owner is ahead — the wipe runs
// before the fresh answer is returned, so the caller serves post-change
// data from a post-change cache. Failures the retry policy's RetryIf
// accepts (peer-indicting by default) are retried per Config.Retry; a
// lookup is idempotent, so replaying it is always safe.
func (n *Node) remoteGet(ctx context.Context, owner, ns string, schema *relation.Schema, key string, seq uint64) (res hidden.Result, found bool, err error) {
	err = resilience.Do(ctx, n.retry, func(ctx context.Context) error {
		res, found, err = n.getOnce(ctx, owner, ns, schema, key, seq)
		return err
	})
	return res, found, err
}

// getOnce performs one forwarded residency lookup, going through the
// owner's batcher so a burst of foreign lookups to the same peer
// coalesces into one frame. key is the predicate's canonical cache key,
// already computed for routing; it travels as the predicate.
func (n *Node) getOnce(ctx context.Context, owner, ns string, schema *relation.Schema, key string, seq uint64) (hidden.Result, bool, error) {
	pt := n.transport.peers[owner]
	tr := obs.FromContext(ctx)
	eb, _ := entryBufs.Get().(*[]byte)
	if eb == nil {
		eb = new([]byte)
		*eb = make([]byte, 0, 192)
	}
	w := wireWriter{buf: (*eb)[:0]}
	appendGetEntry(&w, ns, seq, n.scopeAt(ns, seq), tr != nil, key)
	var began time.Time
	if tr != nil {
		began = time.Now()
	}
	r, err := pt.get(ctx, w.buf)
	if err != nil && isConnLost(err) {
		// The error was delivered through the call's channel, so the
		// batcher has already drained the entry: the buffer is free to
		// travel again.
		r, err = pt.get(ctx, w.buf)
	}
	if err != nil {
		// The entry may still sit in the batch queue (timeout, cancelled
		// context), so the buffer is not recycled.
		return hidden.Result{}, false, mapWireErr("get from", owner, err)
	}
	// A response proves the frame was written; the entry bytes are dead
	// and the buffer can be recycled.
	*eb = w.buf[:0]
	entryBufs.Put(eb)
	rd := wire.NewReader(r.payload)
	resp := decodeGetResponse(rd, schema)
	if derr := rd.Finish(); derr != nil {
		return hidden.Result{}, false, &peerDownError{err: fmt.Errorf("cluster: decode get from %s: %w", owner, derr)}
	}
	tr.Stitch(resp.trace, began)
	n.observeScoped(ns, resp.eseq, resp.scope)
	if !resp.found {
		return hidden.Result{}, false, nil
	}
	if resp.eseq > 0 && n.seqOf(ns) > resp.eseq {
		// The owner answered under an older epoch than this replica now
		// serves under (a bump landed since the request went out, or the
		// owner has not caught up): its residency may predate the change.
		// Treat it as a miss; the owner converges via our seq or gossip.
		return hidden.Result{}, false, nil
	}
	return resp.resultOf(), true, nil
}

// put pushes one answer to a peer's cache synchronously, tagged with the
// epoch seq it was produced under. Peer-indicting failures are retried
// per Config.Retry — an admission is idempotent (the cache keys on the
// predicate), so a replay after an ambiguous failure at worst re-admits
// the same entry. key is the answer's canonical cache key.
func (n *Node) put(ctx context.Context, owner, ns string, schema *relation.Schema, key string, res hidden.Result, seq uint64) error {
	return resilience.Do(ctx, n.retry, func(ctx context.Context) error {
		return n.putOnce(ctx, owner, ns, schema, key, res, seq)
	})
}

// putOnce is one admission attempt. The response's status carries the
// admission verdict: stale-epoch and refused map to plain errors —
// final, never indicting.
func (n *Node) putOnce(ctx context.Context, owner, ns string, schema *relation.Schema, key string, res hidden.Result, seq uint64) error {
	pt := n.transport.peers[owner]
	tr := obs.FromContext(ctx)
	began := time.Now()
	body := func(w *wireWriter) {
		w.str(ns)
		w.uvarint(seq)
		// The scope travels only while seq is still the live epoch: it
		// describes the transition into exactly that seq, and tagging an
		// older seq with a newer transition's rect would let a receiver
		// partial-wipe where a full wipe is owed.
		appendScope(w, n.scopeAt(ns, seq))
		w.bool(tr != nil)
		w.bool(res.Overflow)
		w.str(key)
		w.buf = wire.AppendTuples(w.buf, res.Tuples, schema.Len())
	}
	r, err := pt.roundTrip(ctx, opPut, body)
	if err != nil && isConnLost(err) {
		r, err = pt.roundTrip(ctx, opPut, body)
	}
	if err != nil {
		return mapWireErr("put to", owner, err)
	}
	if r.op != opPutResp {
		return &peerDownError{err: fmt.Errorf("cluster: put to %s answered op %d", owner, r.op)}
	}
	rd := wire.NewReader(r.payload)
	status := rd.U8()
	msg := rd.Str()
	st := decodeSubtree(rd)
	if derr := rd.Finish(); derr != nil {
		return &peerDownError{err: fmt.Errorf("cluster: decode put from %s: %w", owner, derr)}
	}
	tr.Stitch(st, began)
	switch status {
	case putStatusOK:
		return nil
	case putStatusStale:
		return fmt.Errorf("cluster: %s rejected stale-epoch put: %s", owner, msg)
	default:
		return fmt.Errorf("cluster: %s refused put: %s", owner, msg)
	}
}

// asyncAdmit pushes a locally computed answer to its owner in the
// background, tagged with the epoch seq captured before the web query
// was issued. The push is best-effort: a lost admission — including one
// the owner rejects as stale-epoch — costs at most one repeated
// web-database query later, never correctness. Quiesce waits for
// outstanding pushes.
func (n *Node) asyncAdmit(owner, ns string, schema *relation.Schema, key string, res hidden.Result, seq uint64) {
	n.admits.Add(1)
	go func() {
		defer n.admits.Done()
		n.admitsSent.Add(1)
		if err := n.put(context.Background(), owner, ns, schema, key, res, seq); err != nil {
			n.admitErrors.Add(1)
			if isPeerDown(err) {
				n.health.markDead(owner)
			}
		}
	}()
}
