package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseSourceAndPeerLists: -sources, -remote and -peers accept the
// forms deployments pass and reject, at startup, an entry with an empty
// name or URL and a name given twice, which would otherwise replace the
// earlier entry silently.
func TestParseSourceAndPeerLists(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		sources, remote, peers string
		wantLocal              []string
		wantRemote, wantPeers  []namedURL
		wantErr                string
	}{
		{name: "defaults", sources: "bluenile,zillow", wantLocal: []string{"bluenile", "zillow"}},
		{name: "blank -sources entries skipped", sources: " bluenile, ,zillow,", wantLocal: []string{"bluenile", "zillow"}},
		{
			name: "remote only", remote: "bluenile=http://127.0.0.1:1,zillow=http://127.0.0.1:2",
			wantRemote: []namedURL{{"bluenile", "http://127.0.0.1:1"}, {"zillow", "http://127.0.0.1:2"}},
		},
		{
			name: "ring", sources: "bluenile", peers: "a=http://h1:8080,b=http://h2:8080",
			wantLocal: []string{"bluenile"},
			wantPeers: []namedURL{{"a", "http://h1:8080"}, {"b", "http://h2:8080"}},
		},
		{name: "remote empty name", remote: "=http://h:1", wantErr: "bad -remote entry"},
		{name: "remote empty url", remote: "bluenile=", wantErr: "bad -remote entry"},
		{name: "remote without =", remote: "bluenile", wantErr: "bad -remote entry"},
		{name: "remote blank entry", remote: "bluenile=http://h:1,", wantErr: "bad -remote entry"},
		{name: "remote named twice", remote: "bluenile=http://h:1,bluenile=http://h:2", wantErr: `-remote names "bluenile" twice`},
		{name: "sources named twice", sources: "zillow,zillow", wantErr: `source "zillow" named twice`},
		{name: "source and remote share a name", sources: "bluenile", remote: "bluenile=http://h:1", wantErr: `source "bluenile" named twice`},
		{name: "peer empty id", peers: "=http://h1:8080", wantErr: "bad -peers entry"},
		{name: "peer empty url", peers: "a=http://h1:8080,b=", wantErr: "bad -peers entry"},
		{name: "peer named twice", peers: "a=http://h1:8080,a=http://h2:8080", wantErr: `-peers names "a" twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, remote, err := parseSources(tc.sources, tc.remote)
			var peers []namedURL
			if err == nil {
				peers, err = parseNamedURLs("peers", tc.peers)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(local, tc.wantLocal) || !reflect.DeepEqual(remote, tc.wantRemote) || !reflect.DeepEqual(peers, tc.wantPeers) {
				t.Fatalf("got local=%v remote=%v peers=%v", local, remote, peers)
			}
		})
	}
}

// TestSourcePolicyRetries: -source-retries counts tries after the first,
// and a negative count is refused at startup rather than reaching the
// policy as MaxAttempts 0, which the policy reads as its default of 3.
func TestSourcePolicyRetries(t *testing.T) {
	for _, tc := range []struct {
		retries      int
		wantAttempts int
		wantErr      bool
	}{
		{retries: 0, wantAttempts: 1},
		{retries: 2, wantAttempts: 3},
		{retries: -1, wantErr: true},
	} {
		t.Run(fmt.Sprintf("retries=%d", tc.retries), func(t *testing.T) {
			pol, err := sourcePolicy(10*time.Second, tc.retries, 5, 10*time.Second, 1, true)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "-source-retries") {
					t.Fatalf("err = %v, want a -source-retries error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if pol.MaxAttempts != tc.wantAttempts {
				t.Fatalf("MaxAttempts = %d, want %d", pol.MaxAttempts, tc.wantAttempts)
			}
		})
	}
}
