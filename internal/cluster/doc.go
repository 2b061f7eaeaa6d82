// Package cluster scales the answer cache beyond one process: a
// consistent-hash replica ring with a peer protocol for remote
// answer-cache lookup and admission.
//
// QR2's economics depend on amortizing web-database query cost across
// users. PR 3 pooled every source's answer cache inside one process; at
// service scale the same amortization must span replicas, and the cheapest
// design is the routing-broker one: hash every canonical predicate key
// (namespaced by source) onto a ring of replicas so each cached answer has
// exactly one owner cluster-wide. A replica that receives a query it does
// not own proxies the cache lookup to the owner (get); on an owner miss
// it pays the web-database query itself and asynchronously admits the
// answer to the owner (put), so no replica ever pays for an answer any
// replica already holds. A lookup never queries the web database: it
// answers from the owner's residency (exact, containment or crawl entry)
// or reports found=false.
//
// Failure semantics: per-peer health checking (probe + backoff) excludes
// dead peers from the ring — their key ranges move to the clockwise
// successor, and virtual nodes keep the remapping bounded to roughly the
// dead peer's share. A forward that fails mid-flight (the passive
// detection window before the prober notices) falls back to serving
// through the local pool, so user requests never fail on a peer outage;
// the fallback entries are plain LRU citizens that age out once the owner
// returns and resumes absorbing the key's traffic.
//
// # Peer protocol
//
// Every peer operation has exactly one wire form. The data plane — get,
// put, batchGet — rides persistent connections carrying length-prefixed
// binary frames, because at wire speed (both answers resident, the
// forward pure overhead) a per-request HTTP exchange would dominate the
// forward's cost:
//
//	uint32 LE frame length (header + payload, excluded itself)
//	u8     op
//	u8     flags
//	uint64 LE request id
//	payload (op-specific binary codec, see codec.go)
//
// Ops: opHello/opHelloAck open the session, opGet/opGetResp and
// opPut/opPutResp carry the forward traffic, opBatchGet/opBatchResp
// carry coalesced lookups, opErr reports a request-scoped failure with
// an HTTP-alike code (a 5xx-family code indicts the peer, a 4xx is
// final for that request only). Frames are capped at maxFrameLen and
// every decoded count field is bounds-checked against the remaining
// payload before allocation, so a hostile length can't balloon memory
// (fuzz_test.go holds the corpus).
//
// Inside payloads, tuples, predicates and scope rects use the one binary
// codec of internal/wire, which the dense index and the answer cache's
// persisted records use too. The receiver decodes them against its own
// schema for the namespace and accepts only canonical bytes: a tuple
// width other than the schema's, an attribute or category code outside
// it, a condition of the wrong kind or a non-canonical predicate fails
// the request with a 4xx. A predicate travels as its canonical cache key
// (length-prefixed), which the sender has already computed to find the
// owner, so both ends key and route the answer identically.
//
// The control plane — GET /cluster/ring (membership, health, per-source
// epochs with their scopes), GET /cluster/obs (the mergeable metrics
// snapshot) and GET /healthz — is plain JSON over HTTP, readable with
// curl. Each is pulled once per probe tick per peer and never on a
// request's path, so it earns no binary form.
//
// Session: the dialer sends an HTTP Upgrade (token "qr2-peer/2") to the
// peer's one listen address; the peer hijacks the connection, answers
// 101 and both sides exchange hello frames that pin the magic and the
// version (protoVersion, now 3 — a replica on an older payload format
// fails the handshake rather than a request). Each peer gets a small connection pool (Config.PeerConns,
// default DefaultPeerConns); request ids multiplex concurrent RPCs over
// one connection and responses return out of order.
//
// Forward batching: lookups to the same owner pass through a
// group-commit conveyor. The first lookup of a quiet period leaves
// immediately as a plain opGet; while any frame is in flight to that
// peer, later lookups queue and depart together as one opBatchGet when
// the response returns (or after Config.BatchWindow at the latest, so a
// stalled response can't hold the queue). One in-flight lookup frame
// per peer keeps latency flat at low load and lets occupancy grow with
// offered load — TransportStats.BatchOccupancy histograms it.
//
// Epochs: with an epoch registry configured (Config.Epochs), every get
// and put carries (source, epoch seq) both ways. The invalidation
// ordering across the ring is: (1) the detecting replica bumps locally —
// its wipes complete before the bump call returns; (2) any replica
// seeing a higher seq on any message adopts it via Registry.Observe,
// whose wipes likewise complete before the message is answered, so a
// lookup that triggered an adoption reports found=false from the
// already-wiped cache; (3) a put tagged with a seq below the receiver's
// is rejected as stale and counted — the answer may predate the change,
// and losing an admission costs one repeated web query, never
// correctness; (4) the probe loop gossips epochs over /cluster/ring so
// replicas with no shared traffic converge within one probe interval.
// When the sender's latest transition was confined to a rectangle the
// seq travels with its rect, so the adopting replica wipes only the
// intersecting slice of its caches; a message without a scope — an
// adoption that skips sequence numbers, a rect that fails to decode —
// adopts with a full wipe. Scope never weakens the ordering above; it
// only narrows what an adoption destroys.
//
// Failure ladder: replay once → indict → local degrade. A transport
// error on an established connection (severed with the frame in flight,
// a failed write) replays the idempotent frame once, the pool redialling
// dead connections on demand. A failed dial (refused connect, a non-101
// answer to the Upgrade such as a down peer's 503 or a foreign binary's
// 404, a bad hello), a response timeout, a malformed response, a
// 5xx-family opErr or a second transport error indicts the peer:
// Config.Retry may re-run the RPC, then the peer is marked dead, its key
// ranges move to ring successors, and the request is served through the
// local pool as above. A failed dial also arms a short backoff
// (dialRetryTTL) so a burst of forwards to a dead peer costs one connect
// attempt, not one each; the revive probe clears it.
package cluster
