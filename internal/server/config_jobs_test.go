package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
)

// mustServer builds a bare Server for tests that need the raw HTTP
// surface (hostile payloads no typed client can produce).
func mustServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return srv
}

// mitigationPatch returns the Table III "more MSHRs" patch used across
// these tests.
func mitigationPatch(t *testing.T) client.ConfigPatch {
	t.Helper()
	var p client.ConfigPatch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":128}}`), &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInlineConfigEqualToPresetSharesJob submits a configuration by
// preset name, as a byte-wise inline twin, and as an empty patch: one
// job, one simulation.
func TestInlineConfigEqualToPresetSharesJob(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	byName, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	twin := config.Baseline()
	twin.Name = "my-silicon"
	inline, err := c.Run(ctx, client.JobSpec{InlineConfig: &twin, Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if inline.ID != byName.ID {
		t.Fatalf("inline twin of baseline got its own job (%s vs %s)", inline.ID, byName.ID)
	}
	emptyPatch := client.ConfigPatch{Base: "baseline"}
	patched, err := c.Run(ctx, client.JobSpec{ConfigPatch: &emptyPatch, Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if patched.ID != byName.ID {
		t.Fatalf("empty patch on baseline got its own job (%s vs %s)", patched.ID, byName.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

// TestConfigPatchJobParity holds the daemon to the acceptance promise
// for patched hardware: a configPatch job's metrics are byte-identical
// to the library's for the handwritten equivalent config, and both
// spellings share one cell.
func TestConfigPatchJobParity(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	p := mitigationPatch(t)
	job, err := c.Run(ctx, client.JobSpec{ConfigPatch: &p, Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.JobDone {
		t.Fatalf("job = %+v", job)
	}
	if job.Metrics.Config != "baseline-patched" {
		t.Fatalf("metrics config label = %q, want baseline-patched", job.Metrics.Config)
	}

	hand := config.Baseline()
	hand.Name = "baseline-patched" // same label so the payloads can be byte-compared
	hand.L1.MSHREntries = 128
	ref, err := exp.NewScheduler().RunJob(exp.BenchJob(hand, testBench))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalJSON(t, job.Metrics), canonicalJSON(t, &ref); !bytes.Equal(got, want) {
		t.Fatalf("daemon metrics differ from library run:\n%s\nvs\n%s", got, want)
	}

	// The handwritten inline twin shares the patch's job.
	inline, err := c.Run(ctx, client.JobSpec{InlineConfig: &hand, Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if inline.ID != job.ID {
		t.Fatalf("handwritten twin got its own job (%s vs %s)", inline.ID, job.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

// TestMalformedConfigNeverCrashesDaemon: malformed inline configs and
// patches are 400s with validation detail, and the daemon keeps serving.
func TestMalformedConfigNeverCrashesDaemon(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	submit := func(spec client.JobSpec) *client.APIError {
		t.Helper()
		_, err := c.Submit(ctx, spec)
		var apiErr *client.APIError
		if err == nil || !errorsAs(err, &apiErr) {
			t.Fatalf("err = %v, want APIError", err)
		}
		return apiErr
	}

	// Hostile inline configs: every corner is a 400 with detail.
	for _, tc := range []struct {
		name    string
		mut     func(*config.Config)
		wantMsg string
	}{
		{"zero line size", func(c *config.Config) { c.L1.LineBytes, c.L2.LineBytes = 0, 0 }, "line size"},
		{"non-divisible banking", func(c *config.Config) { c.L2.NumBanks = 7 }, "banks"},
		{"negative queue", func(c *config.Config) { c.L1.MissQueueEntries = -8 }, "l1.miss_queue_entries"},
		{"huge cache", func(c *config.Config) { c.L2.SizeBytes = 1 << 40 }, "L2 size"},
		{"unknown mode", func(c *config.Config) { c.Mode = 77 }, "mode"},
	} {
		bad := config.Baseline()
		tc.mut(&bad)
		apiErr := submit(client.JobSpec{InlineConfig: &bad, Bench: testBench})
		if apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.wantMsg) {
			t.Fatalf("%s: got %d %q, want 400 containing %q", tc.name, apiErr.StatusCode, apiErr.Message, tc.wantMsg)
		}
	}

	// NaN-bearing floats arrive as raw JSON (Go clients can't even
	// marshal them): a bare NaN literal dies in the decoder, and a NaN
	// smuggled as a huge exponent dies in Validate — both as 400s.
	ts := httptest.NewServer(mustServer(t).Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"bench":"` + testBench + `","inlineConfig":{"Core":{"ClockMHz":NaN}}}`,
		`{"bench":"` + testBench + `","inlineConfig":{"Core":{"ClockMHz":1e400}}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hostile float config: status %d, want 400", resp.StatusCode)
		}
	}

	// Patch corners.
	badBase := client.ConfigPatch{Base: "nope"}
	if apiErr := submit(client.JobSpec{ConfigPatch: &badBase, Bench: testBench}); !strings.Contains(apiErr.Message, "nope") {
		t.Fatalf("unknown base: %q", apiErr.Message)
	}
	typo := client.ConfigPatch{Base: "baseline", Delta: json.RawMessage(`{"L1":{"MshrEntriez":1}}`)}
	if apiErr := submit(client.JobSpec{ConfigPatch: &typo, Bench: testBench}); apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd patch: %d", apiErr.StatusCode)
	}
	invalid := client.ConfigPatch{Base: "baseline", Delta: json.RawMessage(`{"L2":{"NumBanks":7}}`)}
	if apiErr := submit(client.JobSpec{ConfigPatch: &invalid, Bench: testBench}); !strings.Contains(apiErr.Message, "banks") {
		t.Fatalf("invalid patched config: %q", apiErr.Message)
	}

	// Config-side shape errors.
	cfg := config.Baseline()
	p := mitigationPatch(t)
	if apiErr := submit(client.JobSpec{Config: "baseline", InlineConfig: &cfg, Bench: testBench}); !strings.Contains(apiErr.Message, "mutually exclusive") {
		t.Fatalf("config+inlineConfig: %q", apiErr.Message)
	}
	if apiErr := submit(client.JobSpec{InlineConfig: &cfg, ConfigPatch: &p, Bench: testBench}); !strings.Contains(apiErr.Message, "mutually exclusive") {
		t.Fatalf("inlineConfig+configPatch: %q", apiErr.Message)
	}
	if apiErr := submit(client.JobSpec{Bench: testBench}); !strings.Contains(apiErr.Message, "configPatch") {
		t.Fatalf("configless spec: %q", apiErr.Message)
	}

	// The daemon is still fully alive.
	job, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 10*time.Millisecond)
	if err != nil || job.State != client.JobDone {
		t.Fatalf("daemon unhealthy after rejections: %+v, %v", job, err)
	}
}

// TestConfigsEndpointServesFullPresets: GET /v1/configs returns every
// preset as its full canonical Config, usable directly as an inline
// config that lands on the preset's own cell.
func TestConfigsEndpointServesFullPresets(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	configs, err := c.Configs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := config.Names()
	if len(configs) != len(names) {
		t.Fatalf("got %d configs, want %d", len(configs), len(names))
	}
	for i, cfg := range configs {
		if cfg.Name != names[i] {
			t.Fatalf("config %d = %q, want %q (sorted)", i, cfg.Name, names[i])
		}
		preset, err := config.ByName(cfg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ConfigID() != preset.ConfigID() {
			t.Fatalf("%s: served config's identity differs from the preset's", cfg.Name)
		}
		if cfg.Core.NumCores == 0 {
			t.Fatalf("%s: served config is not the full value: %+v", cfg.Name, cfg)
		}
	}

	// Round-trip: submit a served config as an inline config; it must
	// land on the preset's cell.
	var served *client.HardwareConfig
	for i := range configs {
		if configs[i].Name == "baseline" {
			served = &configs[i]
			break
		}
	}
	byName, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip, err := c.Run(ctx, client.JobSpec{InlineConfig: served, Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if roundTrip.ID != byName.ID {
		t.Fatalf("served canonical config got its own job (%s vs %s)", roundTrip.ID, byName.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

// TestSweepConfigPatchAxis sweeps a mitigation-patch axis: patch columns
// dedup against their preset twins within one request.
func TestSweepConfigPatchAxis(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	real := mitigationPatch(t)
	twin := client.ConfigPatch{Base: "baseline"} // empty delta = preset twin
	resp, err := c.Sweep(ctx, client.SweepRequest{
		Configs:       []string{"baseline"},
		ConfigPatches: []client.ConfigPatch{real, twin},
		Benches:       []string{testBench},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 config columns × 1 bench, minus the twin collapsing onto baseline.
	if resp.Requested != 3 || resp.Deduped != 1 || len(resp.Jobs) != 2 {
		t.Fatalf("sweep expansion = %d requested, %d deduped, %d jobs", resp.Requested, resp.Deduped, len(resp.Jobs))
	}
	for _, j := range resp.Jobs {
		if _, err := c.Wait(ctx, j.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 2 {
		t.Fatalf("simulated = %d, want 2", st.Scheduler.Simulated)
	}

	// A malformed patch corner rejects the whole sweep.
	bad := client.ConfigPatch{Base: "baseline", Delta: json.RawMessage(`{"L2":{"NumBanks":7}}`)}
	_, err = c.Sweep(ctx, client.SweepRequest{
		ConfigPatches: []client.ConfigPatch{real, bad},
		Benches:       []string{testBench},
	})
	var apiErr *client.APIError
	if err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with malformed patch: err = %v, want 400", err)
	}

	// A sweep with no config axis at all is a 400 naming every option.
	_, err = c.Sweep(ctx, client.SweepRequest{Benches: []string{testBench}})
	if err == nil || !errorsAs(err, &apiErr) || !strings.Contains(apiErr.Message, "configPatches") {
		t.Fatalf("configless sweep: err = %v, want configs/inlineConfigs/configPatches 400", err)
	}
}

// TestDiskCacheServesInlineConfigAcrossRestart: an inline-config cell
// persisted by one daemon is served without re-simulation by a fresh
// daemon on the same -cache-dir.
func TestDiskCacheServesInlineConfigAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p := mitigationPatch(t)

	_, c1 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	cold, err := c1.Run(ctx, client.JobSpec{ConfigPatch: &p, Bench: testBench}, 10*time.Millisecond)
	if err != nil || cold.State != client.JobDone {
		t.Fatalf("cold run: %+v, %v", cold, err)
	}

	srv2, c2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	warm, err := c2.Run(ctx, client.JobSpec{ConfigPatch: &p, Bench: testBench}, 10*time.Millisecond)
	if err != nil || warm.State != client.JobDone {
		t.Fatalf("warm run: %+v, %v", warm, err)
	}
	if warm.ID != cold.ID {
		t.Fatalf("cell ID changed across restart: %s vs %s", warm.ID, cold.ID)
	}
	if !bytes.Equal(canonicalJSON(t, warm.Metrics), canonicalJSON(t, cold.Metrics)) {
		t.Fatal("warm metrics differ from cold metrics")
	}
	st := srv2.Stats()
	if st.Scheduler.Simulated != 0 || st.Scheduler.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 simulated / 1 disk hit", st.Scheduler)
	}
}

// TestValidatedLatencyPatchNeverCrashesDaemon submits a patch Validate
// admits but whose latency exceeds every fixed window inside the core:
// the job must finish, because a simulation panic on a worker goroutine
// would take the whole daemon down.
func TestValidatedLatencyPatchNeverCrashesDaemon(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	var p client.ConfigPatch
	if err := json.Unmarshal([]byte(`{"base":"baseline","Core":{"ALULatency":4000}}`), &p); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	job, err := c.Run(context.Background(), client.JobSpec{ConfigPatch: &p, InlineSpec: &spec}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.JobDone {
		t.Fatalf("job = %+v, want done", job)
	}
}
