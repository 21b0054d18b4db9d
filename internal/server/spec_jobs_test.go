package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

// testSpec returns an inline workload spec that is NOT one of the 19
// Table II benchmarks — a deliberately tiny custom kernel.
func testSpec() client.WorkloadSpec {
	return client.WorkloadSpec{
		Name:         "tiny-custom",
		WarpsPerCore: 4, Iters: 4,
		LoadsPerIter: 2, ALUPerIter: 4,
		DepDist: 1, Pattern: trace.PatRandomWS,
		WorkingSetKB: 64,
		Seed:         99,
	}
}

// TestInlineSpecJobParity holds the daemon to the acceptance promise for
// custom workloads: an inline-spec job's metrics are byte-identical (as
// canonical JSON) to what the library produces for the same (config,
// spec) cell, and the daemon's cell simulates exactly once no matter how
// the workload is spelled.
func TestInlineSpecJobParity(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	spec := testSpec()
	job, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &spec}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.JobDone {
		t.Fatalf("job = %+v", job)
	}

	ref, err := exp.NewScheduler().RunJob(exp.SpecJob(config.Baseline(), spec))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalJSON(t, job.Metrics), canonicalJSON(t, &ref); !bytes.Equal(got, want) {
		t.Fatalf("daemon metrics differ from library RunSpec:\n%s\nvs\n%s", got, want)
	}

	// Resubmitting the spec under a different label is the same cell.
	renamed := spec
	renamed.Name = "same-kernel-other-name"
	again, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &renamed}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID {
		t.Fatalf("renamed spec got a new job (%s vs %s)", again.ID, job.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

// TestInlineSpecEqualToPresetSharesJob submits a benchmark by name and as
// an identical inline spec: one job, one simulation.
func TestInlineSpecEqualToPresetSharesJob(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	byName, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := trace.SpecByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if inline.ID != byName.ID {
		t.Fatalf("inline twin of %s got its own job (%s vs %s)", testBench, inline.ID, byName.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

// TestMalformedInlineSpecNeverCrashesDaemon is the MustBuild-panic
// regression test: malformed inline specs are 400s with validation
// detail, and the daemon keeps serving afterwards.
func TestMalformedInlineSpecNeverCrashesDaemon(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	sp := testSpec()
	cases := []struct {
		name    string
		mut     func(*client.WorkloadSpec)
		wantMsg string
	}{
		{"zero iters", func(s *client.WorkloadSpec) { s.Iters = 0 }, "Iters"},
		{"empty body", func(s *client.WorkloadSpec) { s.LoadsPerIter, s.ALUPerIter = 0, 0 }, "empty body"},
		{"missing working set", func(s *client.WorkloadSpec) { s.WorkingSetKB = 0 }, "WorkingSetKB"},
		{"negative geometry", func(s *client.WorkloadSpec) { s.SharedKB = -1 }, "negative"},
		{"unknown pattern", func(s *client.WorkloadSpec) { s.Pattern = 42 }, "pattern"},
	}
	for _, tc := range cases {
		bad := sp
		tc.mut(&bad)
		_, err := c.Submit(ctx, client.JobSpec{Config: "baseline", InlineSpec: &bad})
		var apiErr *client.APIError
		if err == nil || !errorsAs(err, &apiErr) {
			t.Fatalf("%s: err = %v, want APIError", tc.name, err)
		}
		if apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.wantMsg) {
			t.Fatalf("%s: got %d %q, want 400 containing %q", tc.name, apiErr.StatusCode, apiErr.Message, tc.wantMsg)
		}
	}

	// Workload-side shape errors.
	both := sp
	_, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench, InlineSpec: &both})
	var apiErr *client.APIError
	if err == nil || !errorsAs(err, &apiErr) || !strings.Contains(apiErr.Message, "mutually exclusive") {
		t.Fatalf("bench+inlineSpec: err = %v, want mutual-exclusion 400", err)
	}
	if _, err := c.Submit(ctx, client.JobSpec{Config: "baseline"}); err == nil {
		t.Fatal("spec with no workload accepted")
	}

	// The daemon is still fully alive: a valid custom job completes.
	good := testSpec()
	job, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &good}, 10*time.Millisecond)
	if err != nil || job.State != client.JobDone {
		t.Fatalf("daemon unhealthy after rejections: %+v, %v", job, err)
	}
}

// TestSweepWorkloadAxis crosses preset and inline workloads against
// preset and inline configs in one request, with full dedup.
func TestSweepWorkloadAxis(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	variant := testSpec()
	variant.Name = "tiny-tlp8"
	variant.WarpsPerCore = 8
	twin, err := trace.SpecByName(testBench) // inline twin of the preset bench
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Sweep(ctx, client.SweepRequest{
		Configs:     []string{"baseline"},
		Benches:     []string{testBench},
		InlineSpecs: []client.WorkloadSpec{testSpec(), variant, twin},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads × 1 config, minus the twin collapsing onto the bench.
	if resp.Requested != 4 || resp.Deduped != 1 || len(resp.Jobs) != 3 {
		t.Fatalf("sweep expansion = %d requested, %d deduped, %d jobs", resp.Requested, resp.Deduped, len(resp.Jobs))
	}
	for _, j := range resp.Jobs {
		if _, err := c.Wait(ctx, j.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 3 {
		t.Fatalf("simulated = %d, want 3", st.Scheduler.Simulated)
	}

	// A malformed corner rejects the whole sweep.
	bad := testSpec()
	bad.Iters = 0
	_, err = c.Sweep(ctx, client.SweepRequest{
		Configs:     []string{"baseline"},
		InlineSpecs: []client.WorkloadSpec{testSpec(), bad},
	})
	var apiErr *client.APIError
	if err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with malformed spec: err = %v, want 400", err)
	}

	// A sweep with no workload axis at all is a 400 naming both options.
	_, err = c.Sweep(ctx, client.SweepRequest{Configs: []string{"baseline"}})
	if err == nil || !errorsAs(err, &apiErr) || !strings.Contains(apiErr.Message, "inlineSpecs") {
		t.Fatalf("workloadless sweep: err = %v, want benches/inlineSpecs 400", err)
	}
}

// TestDiskCacheServesInlineSpecAcrossRestart: a custom cell persisted by
// one daemon is served without re-simulation by a fresh daemon on the
// same -cache-dir — the same warm-restart promise preset cells have.
func TestDiskCacheServesInlineSpecAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := testSpec()

	_, c1 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	cold, err := c1.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &spec}, 10*time.Millisecond)
	if err != nil || cold.State != client.JobDone {
		t.Fatalf("cold run: %+v, %v", cold, err)
	}

	srv2, c2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	warm, err := c2.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &spec}, 10*time.Millisecond)
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
