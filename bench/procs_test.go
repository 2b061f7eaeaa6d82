package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testBinaries builds the servers once per test process.
var testBinaries = sync.OnceValues(func() (binaries, error) {
	bins, _, err := buildBinaries("..", filepath.Join("..", ".bench_build", "bin"))
	return bins, err
})

func listening(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// A forced abort in the middle of a run — what the signal handler does —
// must leave no child listening and none unreaped.
func TestAbortMidRunLeavesNoChildBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the server binaries")
	}
	bins, err := testBinaries()
	if err != nil {
		t.Fatal(err)
	}
	p := mustPools(t)
	spec := specByName("ring-forward") // the widest fleet: five children
	logDir := t.TempDir()
	fl, err := launchFleet(context.Background(), spec, bins, logDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.stop()
	children := append(append([]*child(nil), fl.wdbs...), fl.qr2s...)
	if len(children) != 5 {
		t.Fatalf("%d children, want 5", len(children))
	}
	for _, c := range children {
		if !listening(c.addr) {
			t.Fatalf("%s is not listening on %s after launch", c.name, c.addr)
		}
	}

	tr := mustTrace(t, p, spec, 1, 0, 0.2)
	d := newDriver([]string{fl.qr2s[0].url(), fl.qr2s[1].url()}, spec.Clients, tr.userSlots())
	defer d.close()
	done := make(chan *phaseResult, 1)
	go func() { done <- d.replay(tr.Warm, spec.Clients, false, 0, 0) }()
	time.Sleep(150 * time.Millisecond) // mid-run
	stopAllFleets()

	select {
	case res := <-done:
		if res.failed == 0 {
			t.Error("the replay outlived its servers without a single failed request; the abort came too late to test anything")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the replay did not end after its servers were killed")
	}
	for _, c := range children {
		select {
		case <-c.exited:
		default:
			t.Errorf("%s (pid %d) was not reaped", c.name, c.pid())
		}
		if listening(c.addr) {
			t.Errorf("%s still listens on %s", c.name, c.addr)
		}
		if _, err := os.Stat(filepath.Join(logDir, c.name+".log")); err != nil {
			t.Errorf("%s left no log: %v", c.name, err)
		}
	}
	fl.stop() // a second stop is harmless
}

func TestLaunchFailureStopsWhatStarted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the server binaries")
	}
	bins, err := testBinaries()
	if err != nil {
		t.Fatal(err)
	}
	// A qr2server that cannot start: the wdbservers launched before it
	// must be stopped again.
	broken := bins
	broken.qr2server = filepath.Join(t.TempDir(), "no-such-binary")
	if _, err := launchFleet(context.Background(), specByName("cold-explore"), broken, t.TempDir()); err == nil {
		t.Fatal("launch with a missing binary succeeded")
	}
	live.Lock()
	n := len(live.fleets)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d fleets still registered after a failed launch", n)
	}
}
