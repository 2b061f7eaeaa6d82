package cluster

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/relation"
	"repro/internal/wire"
)

func farRect() region.Rect {
	return region.MustNew([]int{0}, []relation.Interval{relation.Closed(90000, 90001)})
}

// TestRingScopeRoundTrip: the /cluster/ring scope survives JSON
// including open endpoints and infinite bounds (which JSON numbers cannot
// carry — hence the wire rect bytes, base64 in the document).
func TestRingScopeRoundTrip(t *testing.T) {
	reps, _ := epochCluster(t, 1)
	n, name := reps[0].node, reps[0].inner.Name()
	r := region.MustNew(
		[]int{0, 1},
		[]relation.Interval{
			{Lo: math.Inf(-1), Hi: 12.5, HiOpen: true},
			{Lo: -4, Hi: math.Inf(1), LoOpen: true},
		},
	)
	b, err := json.Marshal(ringDoc{Scopes: map[string][]byte{name: wire.AppendRect(nil, r)}})
	if err != nil {
		t.Fatal(err)
	}
	var d ringDoc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	back := n.ringScope(name, d.Scopes[name])
	if back == nil || !reflect.DeepEqual(*back, r) {
		t.Fatalf("round trip: got %+v, want %+v", back, r)
	}
	// A malformed scope fails to decode — the adopter then falls back to
	// a full wipe — never a panic or a wipe of the wrong region.
	bad := wire.AppendRect(nil, r)
	if n.ringScope(name, bad[:len(bad)-8]) != nil {
		t.Fatal("truncated ring scope decoded")
	}
	if n.ringScope("no-such-source", wire.AppendRect(nil, r)) != nil {
		t.Fatal("scope decoded for a source this replica does not serve")
	}
}

// TestScopedBumpKeepsDisjointWarmthOnForward: a region-scoped bump
// travelling on the forward path partial-wipes the owner — an answer
// disjoint from the bumped rect stays resident cluster-wide and the
// post-bump lookup is still a zero-query hit; a later bump that does
// intersect the answer drops it everywhere.
func TestScopedBumpKeepsDisjointWarmthOnForward(t *testing.T) {
	reps, regs := epochCluster(t, 3)
	ctx := context.Background()
	a, b := reps[0], reps[1]
	name := a.inner.Name()
	p := predOwnedBy(t, reps, b.id)

	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	if _, ok := b.cache.Peek(p); !ok {
		t.Fatal("owner b does not hold the warmed answer")
	}

	// A change confined to a region the answer provably excludes.
	regs[0].BumpRegion(name, farRect())
	before := totalQueries(reps)
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	if regs[1].Seq(name) != 2 {
		t.Fatalf("owner did not adopt the scoped epoch: seq %d", regs[1].Seq(name))
	}
	if pb := regs[1].PartialBumps(name); pb != 1 {
		t.Fatalf("owner partial bumps = %d, want 1 (scope lost on the wire?)", pb)
	}
	if st := b.cache.Stats(); st.PartialWipes != 1 || st.EpochWipes != 0 {
		t.Fatalf("owner wipe counters = partial %d full %d, want 1 / 0", st.PartialWipes, st.EpochWipes)
	}
	if got := totalQueries(reps) - before; got != 0 {
		t.Fatalf("disjoint scoped bump cost %d web queries, want 0 — the answer should have survived", got)
	}

	// A change intersecting the answer's own region drops it everywhere.
	cond := p.Conditions()[0]
	regs[0].BumpRegion(name, region.MustNew([]int{cond.Attr}, []relation.Interval{cond.Iv}))
	before = totalQueries(reps)
	if _, err := a.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	a.node.Quiesce()
	if regs[1].Seq(name) != 3 {
		t.Fatalf("owner seq = %d, want 3", regs[1].Seq(name))
	}
	if got := totalQueries(reps) - before; got != 1 {
		t.Fatalf("intersecting scoped bump refill paid %d web queries, want 1", got)
	}
	if _, ok := b.cache.Peek(p); !ok {
		t.Fatal("post-bump answer not re-admitted at owner")
	}
	if st := b.node.Stats(); st.PeerStalePuts != 0 {
		t.Fatalf("same-epoch push rejected as stale: %+v", st)
	}
}

// TestGossipCarriesScope: a scoped bump reaches an idle replica through
// ring gossip with its region attached — the replica partial-wipes and
// keeps disjoint entries — while a multi-bump gap escalates to the full
// wipe, because the skipped epochs' scopes were never seen.
func TestGossipCarriesScope(t *testing.T) {
	reps, regs := epochCluster(t, 3)
	ctx := context.Background()
	name := reps[0].inner.Name()
	r1 := reps[1]
	p := predOwnedBy(t, reps, r1.id)
	if _, err := r1.db.Search(ctx, p); err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.cache.Peek(p); !ok {
		t.Fatal("owned answer not resident")
	}

	regs[0].BumpRegion(name, farRect())
	r1.node.Gossip(ctx)
	if regs[1].Seq(name) != 2 {
		t.Fatalf("seq = %d after gossip, want 2", regs[1].Seq(name))
	}
	st := r1.cache.Stats()
	if st.PartialWipes != 1 || st.EpochWipes != 0 {
		t.Fatalf("gossiped scope not applied: partial %d full %d", st.PartialWipes, st.EpochWipes)
	}
	if _, ok := r1.cache.Peek(p); !ok {
		t.Fatal("disjoint entry lost to a gossiped scoped bump")
	}

	// Two scoped bumps land before the next gossip: the adoption jumps
	// 2 -> 4, the intermediate scope is unknown, so the wipe must be full
	// even though both bumps were individually scoped.
	regs[0].BumpRegion(name, farRect())
	regs[0].BumpRegion(name, farRect())
	r1.node.Gossip(ctx)
	if regs[1].Seq(name) != 4 {
		t.Fatalf("seq = %d after gapped gossip, want 4", regs[1].Seq(name))
	}
	st = r1.cache.Stats()
	if st.EpochWipes != 1 {
		t.Fatalf("gapped scoped adoption wiped partially (full wipes = %d) — under-wipe", st.EpochWipes)
	}
	if _, ok := r1.cache.Peek(p); ok {
		t.Fatal("entry survived a gapped adoption")
	}
}
