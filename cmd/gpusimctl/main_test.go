package main

import (
	"context"
	"encoding/json"
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

// sweep -knob with one value per knob patches each -configs preset into the
// very cell `sweep -set` patched it into: the request carries the same
// delta, so it names the same job (cell ID). More values add one patch per
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
	cell := func(p config.Patch) string {
		return exp.Job{Config: exp.PatchRef(p), Workload: exp.BenchRef("mm")}.CellID()
	}

	runCtl(t, bin, srv.URL, 10*time.Second, "sweep", "-configs", "baseline", "-knob", "l1.mshr_entries=128", "-benches", "mm")
	req := <-reqs
	delta, err := config.DeltaFromSets([]string{"l1.mshr_entries=128"}) // what -set l1.mshr_entries=128 sent
	if err != nil {
		t.Fatal(err)
	}
	set := config.Patch{Base: "baseline", Delta: delta}
	if len(req.ConfigPatches) != 1 || cell(req.ConfigPatches[0]) != cell(set) ||
		string(req.ConfigPatches[0].Delta) != `{"L1":{"MSHREntries":128}}` {
		t.Fatalf("sweep -knob requested patches %+v, want the one -set cell %s", req.ConfigPatches, cell(set))
	}
	if !reflect.DeepEqual(req.Configs, []string{"baseline"}) || !reflect.DeepEqual(req.Benches, []string{"mm"}) {
		t.Errorf("sweep -knob requested configs %q and benches %q, want baseline and mm", req.Configs, req.Benches)
	}

	runCtl(t, bin, srv.URL, 10*time.Second, "sweep", "-configs", "baseline,L2-4x", "-knob", "l1.mshr_entries=64,128", "-benches", "mm")
	req = <-reqs
	var got []string
	for _, p := range req.ConfigPatches {
		got = append(got, p.Base+" "+string(p.Delta))
	}
	want := []string{
		`baseline {"L1":{"MSHREntries":64}}`, `baseline {"L1":{"MSHREntries":128}}`,
		`L2-4x {"L1":{"MSHREntries":64}}`, `L2-4x {"L1":{"MSHREntries":128}}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two presets × two knob values requested patches %q, want %q", got, want)
	}
}
