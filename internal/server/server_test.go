package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpumembw"
	"gpumembw/client"
	"gpumembw/internal/api"
)

// testBench is the fastest cell in the suite (~150ms); server tests lean
// on it so the full package stays quick even under -race.
const testBench = "dwt2d"

// newTestServer boots a Server behind httptest and returns a client for
// it. Cleanup shuts both down.
func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // double-shutdown in some tests
	})
	return srv, client.New(ts.URL)
}

func canonicalJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSubmitPollResultParity(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	job, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.JobDone {
		t.Fatalf("state = %s (error %q), want done", job.State, job.Error)
	}
	if job.Metrics == nil {
		t.Fatal("done job has no metrics")
	}

	// The HTTP result must match a direct library run of the same cell
	// byte-for-byte as canonical JSON.
	wl, err := gpumembw.WorkloadByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gpumembw.Run(gpumembw.Baseline(), wl)
	if err != nil {
		t.Fatal(err)
	}
	got, want := canonicalJSON(t, job.Metrics), canonicalJSON(t, direct)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP metrics differ from direct gpumembw.Run:\n--- http ---\n%s\n--- direct ---\n%s", got, want)
	}

	// Resubmitting the cell shares the existing job without another
	// simulation.
	again, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID || again.State != client.JobDone {
		t.Fatalf("resubmit: got job %s (%s), want %s (done)", again.ID, again.State, job.ID)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Scheduler.Simulated)
	}
}

func TestEnumerationEndpoints(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	benches, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := gpumembw.BenchmarkNames(); strings.Join(benches, ",") != strings.Join(want, ",") {
		t.Fatalf("benchmarks = %v, want %v", benches, want)
	}
	configs, err := c.ConfigNames(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := gpumembw.ConfigNames(); strings.Join(configs, ",") != strings.Join(want, ",") {
		t.Fatalf("configs = %v, want %v", configs, want)
	}
}

func TestSweepDeduplicatesCells(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()

	// "baseline" listed twice: the duplicate column must collapse.
	req := client.SweepRequest{Configs: []string{"baseline", "baseline", "P-inf"}, Benches: []string{testBench, "leukocyte"}}
	resp, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Requested != 6 || resp.Deduped != 2 || len(resp.Jobs) != 4 {
		t.Fatalf("sweep = %d requested, %d deduped, %d jobs; want 6/2/4", resp.Requested, resp.Deduped, len(resp.Jobs))
	}
	for _, j := range resp.Jobs {
		if _, err := c.Wait(ctx, j.ID, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 4 {
		t.Fatalf("simulated = %d, want 4", st.Scheduler.Simulated)
	}

	// The same sweep submitted twice simulates each unique cell exactly
	// once: the second pass returns the same, already-done jobs.
	resp2, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range resp2.Jobs {
		if j.ID != resp.Jobs[i].ID {
			t.Fatalf("job %d: id %s != first sweep's %s", i, j.ID, resp.Jobs[i].ID)
		}
		if j.State != client.JobDone {
			t.Fatalf("job %s: state %s, want done", j.ID, j.State)
		}
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 4 {
		t.Fatalf("after resubmit: simulated = %d, want still 4", st.Scheduler.Simulated)
	}
}

func TestCancelRemovesQueuedJob(t *testing.T) {
	// Workers not started yet, so submissions stay deterministically
	// queued until we say go.
	srv, err := newServer(Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	keep, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.Submit(ctx, client.JobSpec{Config: "P-inf", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}
	if keep.State != client.JobQueued || doomed.State != client.JobQueued {
		t.Fatalf("states = %s/%s, want queued/queued", keep.State, doomed.State)
	}

	got, err := c.Cancel(ctx, doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != client.JobCanceled {
		t.Fatalf("state after cancel = %s, want canceled", got.State)
	}
	// Canceling again is idempotent.
	if got, err = c.Cancel(ctx, doomed.ID); err != nil || got.State != client.JobCanceled {
		t.Fatalf("second cancel: %v, state %v", err, got)
	}

	srv.startWorkers()
	if _, err := c.Wait(ctx, keep.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The canceled job must never have run.
	if j, err := c.Job(ctx, doomed.ID); err != nil || j.State != client.JobCanceled {
		t.Fatalf("canceled job: %v, state %v", err, j.State)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (canceled cell must not simulate)", st.Scheduler.Simulated)
	}

	// A completed job cannot be canceled.
	var apiErr *client.APIError
	if _, err := c.Cancel(ctx, keep.ID); err == nil {
		t.Fatal("canceling a done job succeeded")
	} else if !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: err = %v, want 409", err)
	}

	// A canceled job is resubmittable.
	re, err := c.Run(ctx, client.JobSpec{Config: "P-inf", Bench: testBench}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if re.ID != doomed.ID || re.State != client.JobDone {
		t.Fatalf("resubmit after cancel: job %s state %s, want %s done", re.ID, re.State, doomed.ID)
	}

	ctxTO, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctxTO); err != nil {
		t.Fatal(err)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **client.APIError) bool {
	e, ok := err.(*client.APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestMalformedSpecsRejected(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	bad := gpumembw.Baseline()
	bad.Core.NumCores = 0

	cases := []struct {
		name    string
		spec    client.JobSpec
		status  int
		wantMsg string
	}{
		{"invalid inline config carries Validate detail",
			client.JobSpec{InlineConfig: &bad, Bench: testBench}, http.StatusBadRequest, "core.num_cores"},
		{"unknown preset lists valid names",
			client.JobSpec{Config: "nope", Bench: testBench}, http.StatusBadRequest, "baseline"},
		{"unknown bench lists valid names",
			client.JobSpec{Config: "baseline", Bench: "nope"}, http.StatusBadRequest, testBench},
		{"missing config",
			client.JobSpec{Bench: testBench}, http.StatusBadRequest, "config"},
		{"config and inline are exclusive",
			client.JobSpec{Config: "baseline", InlineConfig: &bad, Bench: testBench}, http.StatusBadRequest, "mutually exclusive"},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.spec)
		var apiErr *client.APIError
		if err == nil || !errorsAs(err, &apiErr) {
			t.Fatalf("%s: err = %v, want APIError", tc.name, err)
		}
		if apiErr.StatusCode != tc.status || !strings.Contains(apiErr.Message, tc.wantMsg) {
			t.Fatalf("%s: got %d %q, want %d containing %q", tc.name, apiErr.StatusCode, apiErr.Message, tc.status, tc.wantMsg)
		}
	}

	// Unknown job IDs are 404.
	var apiErr *client.APIError
	if _, err := c.Job(ctx, "deadbeef"); err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: err = %v, want 404", err)
	}
}

func TestQueueBoundReturns503(t *testing.T) {
	srv, err := newServer(Options{Workers: 1, MaxQueue: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if _, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench}); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	_, err = c.Submit(ctx, client.JobSpec{Config: "P-inf", Bench: testBench})
	if err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: err = %v, want 503", err)
	}

	// Canceling the queued job frees its slot immediately.
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs = %v, %v", jobs, err)
	}
	if _, err := c.Cancel(ctx, jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, client.JobSpec{Config: "P-inf", Bench: testBench}); err != nil {
		t.Fatalf("submit after cancel should reuse the freed slot: %v", err)
	}
	srv.startWorkers()
	ctxTO, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctxTO); err != nil {
		t.Fatal(err)
	}
}

func TestSweepRejectsWholeWhenQueueTooSmall(t *testing.T) {
	srv, err := newServer(Options{Workers: 1, MaxQueue: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	// Two cells, one slot: the sweep must reject atomically, leaving the
	// client owning no half-submitted jobs.
	var apiErr *client.APIError
	_, err = c.Sweep(ctx, client.SweepRequest{Configs: []string{"baseline", "P-inf"}, Benches: []string{testBench}})
	if err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized sweep: err = %v, want 503", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("oversized sweep half-submitted %d job(s)", len(jobs))
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()

	specs := []client.JobSpec{
		{Config: "baseline", Bench: testBench},
		{Config: "P-inf", Bench: testBench},
	}
	const clientsPerSpec = 8
	var wg sync.WaitGroup
	jobs := make([]*client.Job, len(specs)*clientsPerSpec)
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = c.Run(ctx, specs[i%len(specs)], 10*time.Millisecond)
			// Interleave reads to shake races out of the job table.
			c.Jobs(ctx)  //nolint:errcheck
			c.Stats(ctx) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if jobs[i].State != client.JobDone {
			t.Fatalf("client %d: state %s (error %q)", i, jobs[i].State, jobs[i].Error)
		}
	}
	// Every client that asked for the same cell saw the same job and the
	// same result; only the unique cells simulated.
	for i, j := range jobs {
		ref := jobs[i%len(specs)]
		if j.ID != ref.ID {
			t.Fatalf("client %d: id %s, want %s", i, j.ID, ref.ID)
		}
		if !bytes.Equal(canonicalJSON(t, j.Metrics), canonicalJSON(t, ref.Metrics)) {
			t.Fatalf("client %d: metrics diverge", i)
		}
	}
	if st := srv.Stats(); st.Scheduler.Simulated != int64(len(specs)) {
		t.Fatalf("simulated = %d, want %d", st.Scheduler.Simulated, len(specs))
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	j, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker actually picked it up so shutdown exercises
	// the drain path, not queued-job cancellation.
	for {
		cur, err := c.Job(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != client.JobQueued {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctxTO, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctxTO); err != nil {
		t.Fatal(err)
	}
	done, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != client.JobDone {
		t.Fatalf("in-flight job after drain: %s, want done", done.State)
	}

	// The drained daemon refuses new work.
	var apiErr *client.APIError
	if _, err := c.Submit(ctx, client.JobSpec{Config: "P-inf", Bench: testBench}); err == nil || !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: err = %v, want 503", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 3, MaxQueue: 17})
	ctx := context.Background()
	if _, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.QueueCap != 17 {
		t.Fatalf("stats = %+v, want 3 workers, queue cap 17", st)
	}
	if st.Scheduler.Simulated != 1 || st.Jobs[api.JobDone] != 1 {
		t.Fatalf("stats = %+v, want 1 simulated, 1 done job", st)
	}
	_ = srv
}
