package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
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

// sweep -knob with one value per knob sets each -configs preset into the
// very cell the handwritten patch of that knob names, under the patch's
// label, and sends it as an inline config. More values add one config per
// point of the knobs' cross product, preset by preset.
func TestSweepKnobRequestsTheSetCell(t *testing.T) {
	reqs := make(chan client.SweepRequest, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req client.SweepRequest
		if r.Method != http.MethodPost || r.URL.Path != "/v1/sweeps" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "unexpected request", http.StatusBadRequest)
			return
		}
		reqs <- req
		json.NewEncoder(w).Encode(client.SweepResponse{ID: "sw-1"})
	}))
	defer srv.Close()
	bin := buildCtl(t)
	cell := func(ref exp.ConfigRef) string {
		return exp.Job{Config: ref, Workload: exp.BenchRef("mm")}.CellID()
	}

	runCtl(t, bin, srv.URL, 10*time.Second, "sweep", "-configs", "baseline", "-knob", "l1.mshr_entries=128", "-benches", "mm")
	req := <-reqs
	var hand config.Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":128}}`), &hand); err != nil {
		t.Fatal(err)
	}
	if len(req.InlineConfigs) != 1 || len(req.ConfigPatches) != 0 ||
		cell(exp.InlineConfig(req.InlineConfigs[0])) != cell(exp.PatchRef(hand)) ||
		req.InlineConfigs[0].Name != "baseline-patched" {
		t.Fatalf("sweep -knob requested configs %+v and patches %+v, want the one patch cell %s",
			req.InlineConfigs, req.ConfigPatches, cell(exp.PatchRef(hand)))
	}
	if !reflect.DeepEqual(req.Configs, []string{"baseline"}) || !reflect.DeepEqual(req.Benches, []string{"mm"}) {
		t.Errorf("sweep -knob requested configs %q and benches %q, want baseline and mm", req.Configs, req.Benches)
	}

	runCtl(t, bin, srv.URL, 10*time.Second, "sweep", "-configs", "baseline,L2-4x", "-knob", "l1.mshr_entries=64,128", "-benches", "mm")
	req = <-reqs
	var got []string
	for _, c := range req.InlineConfigs {
		got = append(got, fmt.Sprintf("%s %d %d", c.Name, c.L2.NumBanks, c.L1.MSHREntries))
	}
	want := []string{
		"baseline-patched 12 64", "baseline-patched 12 128",
		"L2-4x-patched 48 64", "L2-4x-patched 48 128",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two presets × two knob values requested configs %q, want %q", got, want)
	}
}
