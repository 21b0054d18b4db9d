package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
)

// buildCtl builds the CLI once per test into a temp dir.
func buildCtl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gpusimctl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCtl runs the CLI against addr and fails the test if it does not
// exit 0 within limit.
func runCtl(t *testing.T, bin, addr string, limit time.Duration, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("gpusimctl %v: %v (limit %v)\n%s", args, err, limit, out)
	}
	return string(out)
}

// Without -wait, explore-status prints a snapshot of a running
// exploration, its rounds so far included, and returns: it does not
// follow the search to the end.
func TestExploreStatusWithoutWaitPrintsSnapshot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(client.Exploration{
			ID: "ex-1", State: client.ExplorationRunning, Strategy: "halving",
			Base: "baseline", GridSize: 12, Probes: 6,
			Rounds: []client.ExploreRound{
				{Label: "base", Probes: 1, BestSpeedup: 1},
				{Label: "screen", Probes: 5, BestSpeedup: 1.04, Feasible: true},
			},
		})
	}))
	defer srv.Close()
	out := runCtl(t, buildCtl(t), srv.URL, 4*time.Second, "explore-status", "ex-1")
	for _, want := range []string{"exploration ex-1", "base", "screen", "running"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "recommended") {
		t.Errorf("a running exploration printed a recommendation:\n%s", out)
	}
}

// The next-page hint of a state-filtered listing keeps the filter, so
// following it verbatim pages through the same listing.
func TestListNextPageHintKeepsState(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(client.JobList{NextPageToken: "tok"})
	}))
	defer srv.Close()
	out := runCtl(t, buildCtl(t), srv.URL, 10*time.Second, "list", "-state", "done", "-limit", "5")
	if want := "gpusimctl list -state done -limit 5 -page-token tok"; !strings.Contains(out, want) {
		t.Errorf("next-page hint lacks %q:\n%s", want, out)
	}
}
