package experiments

import (
	"context"
	"testing"
)

// TestScenarioWireSpeedShape checks the acceptance criteria on S12. The
// hard assertions — byte-identical rows from every entry replica, zero
// replay errors through the hot burst and through the mid-burst kill,
// and degraded serving actually engaging after the kill — run inside
// the scenario and fail it; the shape test pins the three phases.
func TestScenarioWireSpeedShape(t *testing.T) {
	r := quickRunner()
	tab, err := r.Run(context.Background(), "S12")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("S12 has %d phases, want 3:\n%s", len(tab.Rows), tab.Format())
	}
	for row := 0; row < 3; row++ {
		if got := cell(t, tab, row, 2); got != "0" {
			t.Fatalf("phase %d reports %s errors/mismatches, want 0\n%s", row+1, got, tab.Format())
		}
	}
	// Phase 1 crossed the ring: answers owned elsewhere moved as frames.
	if atoi(t, cell(t, tab, 0, 3)) == 0 {
		t.Fatalf("phase 1 moved no frames — every answer was local, the comparison is vacuous\n%s", tab.Format())
	}
	// The hot burst left in coalesced batch frames.
	if atoi(t, cell(t, tab, 1, 3)) == 0 || atoi(t, cell(t, tab, 1, 4)) == 0 {
		t.Fatalf("hot burst moved no frames or batched gets\n%s", tab.Format())
	}
	// The kill phase engaged degraded serving without losing a caller.
	if atoi(t, cell(t, tab, 2, 5)) == 0 {
		t.Fatalf("kill phase shows no degraded serves\n%s", tab.Format())
	}
}
