package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestScenarioSourceEpochsShape checks the acceptance criteria on S8:
// after a mid-run source mutation every replica converges to the bumped
// epoch, a stale-epoch peer put is rejected with a counted metric,
// and zero post-convergence answers come from pre-change cache (byte-
// compared against a cold replica).
func TestScenarioSourceEpochsShape(t *testing.T) {
	r := quickRunner()
	tab, err := r.Run(context.Background(), "S8")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-change: the warm pass pays, the repeat pass is free.
	if warm := atoi(t, cell(t, tab, 0, 1)); warm == 0 {
		t.Fatalf("vacuous warm pass:\n%s", tab.Format())
	}
	if rep := atoi(t, cell(t, tab, 1, 1)); rep != 0 {
		t.Fatalf("pre-change repeat pass paid %d queries\n%s", rep, tab.Format())
	}
	// Detection: only the probing replica bumps.
	if got := cell(t, tab, 2, 2); got != "2/1/1" {
		t.Fatalf("post-probe epochs = %s, want 2/1/1\n%s", got, tab.Format())
	}
	// The old-epoch push is rejected and counted; the pusher adopted the
	// owner's epoch from the get response.
	if got := cell(t, tab, 3, 2); got != "2/2/1" {
		t.Fatalf("post-forward epochs = %s, want 2/2/1\n%s", got, tab.Format())
	}
	if sp := atoi(t, cell(t, tab, 3, 3)); sp != 1 {
		t.Fatalf("stale puts = %d, want 1\n%s", sp, tab.Format())
	}
	// Gossip converges the replica with no shared traffic.
	if got := cell(t, tab, 4, 2); got != "2/2/2" {
		t.Fatalf("post-gossip epochs = %s, want 2/2/2\n%s", got, tab.Format())
	}
	// Post-change: real queries are paid again (the caches were wiped),
	// and every answer is byte-identical to the cold replica.
	if q := atoi(t, cell(t, tab, 5, 1)); q == 0 {
		t.Fatalf("post-change workload paid nothing — wipe did not happen\n%s", tab.Format())
	}
	if got := cell(t, tab, 5, 4); !strings.HasPrefix(got, "0 of ") {
		t.Fatalf("stale answers = %s, want 0 of N\n%s", got, tab.Format())
	}
	if got := cell(t, tab, 5, 2); got != "2/2/2" {
		t.Fatalf("final epochs = %s, want 2/2/2\n%s", got, tab.Format())
	}
}

// TestScenarioRegionEpochsShape checks the acceptance criteria on S10:
// a mid-run mutation confined to one region produces a scoped bump that
// converges cluster-wide as partial wipes only, exactly one cache entry
// is dropped across the cluster, the sibling workload costs zero web
// queries, and both sibling and bumped-region answers are byte-identical
// to a cold replica over the mutated source.
func TestScenarioRegionEpochsShape(t *testing.T) {
	r := quickRunner()
	tab, err := r.Run(context.Background(), "S10")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-change: the warm pass pays, the repeat pass is free.
	if warm := atoi(t, cell(t, tab, 0, 1)); warm == 0 {
		t.Fatalf("vacuous warm pass:\n%s", tab.Format())
	}
	if rep := atoi(t, cell(t, tab, 1, 1)); rep != 0 {
		t.Fatalf("pre-change repeat pass paid %d queries\n%s", rep, tab.Format())
	}
	// Detection: the bounded sentinel bumps only the probing replica, the
	// wipe is partial, and exactly one entry is dropped (the bumped
	// window's), everything else retained.
	if got := cell(t, tab, 2, 2); got != "2/1/1" {
		t.Fatalf("post-probe epochs = %s, want 2/1/1\n%s", got, tab.Format())
	}
	if got := cell(t, tab, 2, 3); got != "1/0" {
		t.Fatalf("post-probe wipes = %s, want 1 partial / 0 full\n%s", got, tab.Format())
	}
	if got := cell(t, tab, 2, 4); !strings.HasPrefix(got, "1/") {
		t.Fatalf("post-probe dropped/retained = %s, want exactly 1 dropped\n%s", got, tab.Format())
	}
	// The scope rides the forward path and gossip: each adoption is a
	// partial wipe, never a full one, and drops nothing further (no other
	// replica holds an intersecting entry).
	if got := cell(t, tab, 3, 2); got != "2/2/1" {
		t.Fatalf("post-forward epochs = %s, want 2/2/1\n%s", got, tab.Format())
	}
	if q := atoi(t, cell(t, tab, 3, 1)); q != 1 {
		t.Fatalf("bumped-window refill paid %d queries, want 1\n%s", q, tab.Format())
	}
	if got := cell(t, tab, 4, 2); got != "2/2/2" {
		t.Fatalf("post-gossip epochs = %s, want 2/2/2\n%s", got, tab.Format())
	}
	if got := cell(t, tab, 4, 3); got != "3/0" {
		t.Fatalf("post-gossip wipes = %s, want 3 partial / 0 full\n%s", got, tab.Format())
	}
	if got := cell(t, tab, 4, 4); !strings.HasPrefix(got, "1/") {
		t.Fatalf("cluster-wide dropped/retained = %s, want exactly 1 dropped\n%s", got, tab.Format())
	}
	// Sibling workload: zero web queries, byte-identical to cold.
	if q := atoi(t, cell(t, tab, 5, 1)); q != 0 {
		t.Fatalf("sibling workload paid %d queries after the scoped bump, want 0\n%s", q, tab.Format())
	}
	if got := cell(t, tab, 5, 5); !strings.HasPrefix(got, "0 of ") {
		t.Fatalf("sibling stale answers = %s, want 0 of N\n%s", got, tab.Format())
	}
	// Bumped window: served from the refill on every replica,
	// byte-identical to cold.
	if got := cell(t, tab, 6, 5); got != "0 of 3" {
		t.Fatalf("bumped-window stale answers = %s, want 0 of 3\n%s", got, tab.Format())
	}
}
