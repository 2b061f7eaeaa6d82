package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The fleet observability roll-up. Each replica serves its own mergeable
// snapshot at GET /cluster/obs (mounted by Register when Config.Snapshot
// is set); PollObs — riding the same tick as the health prober and epoch
// gossip — pulls every alive peer's snapshot, merges it with the local
// one (the log-bucketed histograms merge exactly: identical
// power-of-two buckets, elementwise adds) and hands the fleet snapshot
// to Config.OnFleetSnapshot, which the service feeds into the SLO
// tracker and the qr2_fleet_* families on /metrics.

// handleObs serves this replica's observability snapshot.
func (n *Node) handleObs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.snapshotFn())
}

// PollObs refreshes the fleet roll-up: the local snapshot plus every
// alive peer's, merged. Peers that fail to answer keep their last-polled
// snapshot in the per-replica view (marked not-current by PeerStats) but
// a failed fetch never indicts a peer — the health prober owns that.
// No-op without Config.Snapshot.
func (n *Node) PollObs(ctx context.Context) {
	if n.snapshotFn == nil {
		return
	}
	local := n.snapshotFn()
	replicas := map[string]*obs.Snapshot{n.self: local}
	for id, url := range n.urls {
		if id == n.self || !n.health.alive(id) {
			continue
		}
		s := new(obs.Snapshot)
		if err := n.getJSON(ctx, url+"/cluster/obs", s); err != nil {
			continue // opportunistic, like gossip
		}
		if s.Replica == "" {
			s.Replica = id
		}
		replicas[id] = s
	}
	snaps := make([]*obs.Snapshot, 0, len(replicas))
	for _, s := range replicas {
		snaps = append(snaps, s)
	}
	merged := obs.MergeSnapshots(snaps...)
	n.fleetMu.Lock()
	n.fleetMerged = merged
	n.fleetReplicas = replicas
	n.fleetAt = time.Now()
	n.fleetMu.Unlock()
	if n.onFleet != nil {
		n.onFleet(merged)
	}
}

// FleetObs returns the last roll-up: the merged fleet snapshot, the
// per-replica snapshots it was merged from, and when the poll ran.
// nil merged means no poll has completed yet. The returned snapshots
// are shared and must be treated as read-only.
func (n *Node) FleetObs() (merged *obs.Snapshot, replicas map[string]*obs.Snapshot, at time.Time) {
	n.fleetMu.Lock()
	defer n.fleetMu.Unlock()
	return n.fleetMerged, n.fleetReplicas, n.fleetAt
}
