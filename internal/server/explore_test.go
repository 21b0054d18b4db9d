package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/trace"
)

// exploreSpec is a fast inline workload for exploration tests: small
// enough that a whole search stays in the hundreds of milliseconds,
// memory-bound enough that mitigation knobs move the needle.
func exploreSpec() trace.Spec {
	return trace.Spec{
		Name: "探-t", Iters: 2, LoadsPerIter: 6, ALUPerIter: 1,
		Pattern: trace.PatRandomWS, WorkingSetKB: 512, WarpsPerCore: 8, Seed: 7,
	}
}

// exploreReq is the canonical small search the explore tests share: a
// 2-axis custom lattice so the probe count stays tiny.
func exploreReq() client.ExploreRequest {
	return client.ExploreRequest{
		InlineSpecs: []trace.Spec{exploreSpec()},
		Objective:   client.ExploreObjective{TargetSpeedup: 1.01, Minimize: "area"},
		Knobs: []client.ExploreKnob{
			{Path: "l1.mshr_entries", Values: []string{"32", "64", "128"}},
			{Path: "l2.num_banks", Values: []string{"12", "24"}},
		},
	}
}

// TestExploreLifecycle drives POST /v1/explore end to end on one
// daemon: the search finishes, the resource carries rounds, a frontier
// and a recommendation, re-posting the identical request joins the same
// content-addressed resource without simulating anything new, and the
// knob-space model is served at GET /v1/knobs.
func TestExploreLifecycle(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 4, CacheDir: t.TempDir()})
	ctx := context.Background()

	ex, err := c.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	if ex.ID == "" || ex.GridSize != 6 {
		t.Fatalf("exploration = %+v, want an ID and grid 3×2=6", ex)
	}
	done, err := c.WaitExploration(ctx, ex.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != client.ExplorationDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if len(done.Rounds) == 0 || len(done.Frontier) == 0 || done.Recommended == nil {
		t.Fatalf("finished exploration is missing rounds/frontier/recommendation: %+v", done)
	}
	if done.Probes <= 0 || int64(done.Probes) > done.GridSize {
		t.Fatalf("probes = %d of grid %d", done.Probes, done.GridSize)
	}
	if done.Tiers.Simulated == 0 {
		t.Fatal("a first-run exploration must simulate at least one cell")
	}
	if done.ProbesDigest == "" {
		t.Fatal("finished exploration has no probes digest")
	}

	// Idempotent rejoin: the same request is the same resource, already
	// finished, with nothing new simulated.
	again, err := c.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != done.ID {
		t.Fatalf("re-posted exploration got ID %s, want %s", again.ID, done.ID)
	}
	if again.State != client.ExplorationDone || again.Tiers != done.Tiers {
		t.Fatalf("rejoined exploration = state %s tiers %+v, want the finished original %+v",
			again.State, again.Tiers, done.Tiers)
	}

	// The knob-space model backs the lattice.
	knobs, err := c.Knobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range knobs {
		if k.Path == "l1.mshr_entries" {
			found = true
			if k.Type != "int" || k.Baseline == "" {
				t.Fatalf("l1.mshr_entries knob = %+v", k)
			}
		}
	}
	if !found {
		t.Fatalf("GET /v1/knobs (%d entries) is missing l1.mshr_entries", len(knobs))
	}
}

// TestExploreRejectsHostileRequests pins the 400 surface of POST
// /v1/explore: every malformed request is refused with a client-error
// envelope, never accepted or crashed on.
func TestExploreRejectsHostileRequests(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	hostile := map[string]client.ExploreRequest{
		"no workloads": {Objective: client.ExploreObjective{TargetSpeedup: 1.5}},
		"no objective": {Benchmarks: []string{testBench}},
		"both objectives": {Benchmarks: []string{testBench},
			Objective: client.ExploreObjective{TargetSpeedup: 1.5, AreaBudgetMM2: 20}},
		"target below 1": {Benchmarks: []string{testBench},
			Objective: client.ExploreObjective{TargetSpeedup: 0.5}},
		"unknown bench": {Benchmarks: []string{"nope"},
			Objective: client.ExploreObjective{TargetSpeedup: 1.5}},
		"unknown base": {Benchmarks: []string{testBench}, Base: "nope",
			Objective: client.ExploreObjective{TargetSpeedup: 1.5}},
		"unknown strategy": {Benchmarks: []string{testBench}, Strategy: "annealing",
			Objective: client.ExploreObjective{TargetSpeedup: 1.5}},
		"climb, the deleted strategy": {Benchmarks: []string{testBench}, Strategy: "climb",
			Objective: client.ExploreObjective{TargetSpeedup: 1.5}},
		"unknown knob": {Benchmarks: []string{testBench},
			Objective: client.ExploreObjective{TargetSpeedup: 1.5},
			Knobs:     []client.ExploreKnob{{Path: "nope", Values: []string{"1"}}}},
		"unparsable knob value": {Benchmarks: []string{testBench},
			Objective: client.ExploreObjective{TargetSpeedup: 1.5},
			Knobs:     []client.ExploreKnob{{Path: "l1.mshr_entries", Values: []string{"many"}}}},
		"wrong minimize": {Benchmarks: []string{testBench},
			Objective: client.ExploreObjective{TargetSpeedup: 1.5, Minimize: "latency"}},
	}
	for name, req := range hostile {
		_, err := c.Explore(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode < 400 || apiErr.StatusCode > 499 {
			t.Errorf("%s: err = %v, want a 4xx APIError", name, err)
		} else if req.Strategy != "" && !strings.Contains(apiErr.Message, "halving") {
			t.Errorf("%s: %q does not name the one search, halving", name, apiErr.Message)
		}
	}
	if _, err := c.GetExploration(ctx, "ex-nope"); err == nil {
		t.Error("GET of an unknown exploration did not fail")
	}
}

// TestExploreRestartResume pins the journal/resume contract: a daemon
// restarted on the same cache directory replays its journaled
// explorations entirely from the disk cache — the rebuilt resource is
// identical (same ID, digest, frontier and recommendation) and zero
// cells are re-simulated.
func TestExploreRestartResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	boot := func() (*Server, *httptest.Server, *client.Client) {
		srv, err := New(Options{Workers: 4, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts, client.New(ts.URL)
	}

	srv, ts, c := boot()
	first, err := c.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	first, err = c.WaitExploration(ctx, first.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != client.ExplorationDone || first.Tiers.Simulated == 0 {
		t.Fatalf("first run = state %s tiers %+v", first.State, first.Tiers)
	}
	ts.Close()
	shctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon on the same cache dir re-runs the journaled search
	// on boot — from cache, simulating nothing.
	srv2, ts2, c2 := boot()
	defer func() {
		ts2.Close()
		shctx2, cancel2 := context.WithTimeout(ctx, 30*time.Second)
		defer cancel2()
		srv2.Shutdown(shctx2) //nolint:errcheck // test teardown
	}()
	second, err := c2.WaitExploration(ctx, first.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != client.ExplorationDone {
		t.Fatalf("replayed exploration = state %s (error %q)", second.State, second.Error)
	}
	if second.Tiers.Simulated != 0 {
		t.Fatalf("replayed exploration simulated %d cells, want 0 (all from disk cache)",
			second.Tiers.Simulated)
	}
	if second.ProbesDigest != first.ProbesDigest || second.Probes != first.Probes {
		t.Fatalf("replay diverged: probes %d digest %s, want %d %s",
			second.Probes, second.ProbesDigest, first.Probes, first.ProbesDigest)
	}
	if string(canonicalJSON(t, second.Recommended)) != string(canonicalJSON(t, first.Recommended)) ||
		string(canonicalJSON(t, second.Frontier)) != string(canonicalJSON(t, first.Frontier)) {
		t.Fatal("replayed exploration's frontier or recommendation differs from the original")
	}
}

// TestExploreRefusedWhileDraining pins exploration admission to the job
// rule: a new exploration posted after Shutdown has begun is refused with
// the 503 unavailable envelope a job gets, and nothing is journaled for a
// later start to resume.
func TestExploreRefusedWhileDraining(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newIdleServer(t, Options{Workers: 1, CacheDir: dir})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/explore", body, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != api.CodeUnavailable {
		t.Fatalf("POST /v1/explore while draining: %d %+v, want 503 %q", resp.StatusCode, e, api.CodeUnavailable)
	}
	journal, err := os.ReadDir(filepath.Join(dir, "explore"))
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) != 0 {
		t.Fatalf("a refused exploration left %d journal files", len(journal))
	}
}

// TestExploreClusterParity pins placement-neutrality for explorations:
// the same request on a single daemon and on a 2-worker coordinator
// lands on the same exploration ID, probe digest, frontier and
// recommendation. Sharding is placement, never results.
func TestExploreClusterParity(t *testing.T) {
	ctx := context.Background()
	_, single := newTestServer(t, Options{Workers: 4})
	tc := newTestCluster(t, []*Server{newWorker(t), newWorker(t)})

	req := exploreReq()
	a, err := single.Explore(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.client.Explore(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("daemon and coordinator disagree on the exploration ID: %s vs %s", a.ID, b.ID)
	}
	if a, err = single.WaitExploration(ctx, a.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b, err = tc.client.WaitExploration(ctx, b.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a.State != client.ExplorationDone || b.State != client.ExplorationDone {
		t.Fatalf("states: daemon %s (%q), coordinator %s (%q)", a.State, a.Error, b.State, b.Error)
	}
	if a.ProbesDigest != b.ProbesDigest || a.Probes != b.Probes {
		t.Fatalf("probe sets diverge: daemon %d/%s, coordinator %d/%s",
			a.Probes, a.ProbesDigest, b.Probes, b.ProbesDigest)
	}
	if string(canonicalJSON(t, a.Recommended)) != string(canonicalJSON(t, b.Recommended)) ||
		string(canonicalJSON(t, a.Frontier)) != string(canonicalJSON(t, b.Frontier)) {
		t.Fatal("daemon and coordinator disagree on the frontier or recommendation")
	}
	for i := range a.Rounds {
		if a.Rounds[i].Probes != b.Rounds[i].Probes || a.Rounds[i].Label != b.Rounds[i].Label {
			t.Fatalf("round %d diverges: %+v vs %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}

// TestExploreWorkerCountParity pins scheduler-concurrency neutrality:
// one worker and eight workers walk the identical probe sequence and
// land on the identical result.
func TestExploreWorkerCountParity(t *testing.T) {
	ctx := context.Background()
	_, j1 := newTestServer(t, Options{Workers: 1})
	_, j8 := newTestServer(t, Options{Workers: 8})
	a, err := j1.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	b, err := j8.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("worker counts disagree on the exploration ID: %s vs %s", a.ID, b.ID)
	}
	if a, err = j1.WaitExploration(ctx, a.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b, err = j8.WaitExploration(ctx, b.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a.ProbesDigest != b.ProbesDigest || a.Probes != b.Probes ||
		string(canonicalJSON(t, a.Recommended)) != string(canonicalJSON(t, b.Recommended)) {
		t.Fatalf("-j1 and -j8 diverge: %d/%s vs %d/%s",
			a.Probes, a.ProbesDigest, b.Probes, b.ProbesDigest)
	}
}
