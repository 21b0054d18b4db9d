package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// TestSweepCellsHonourProfile pins that a cell-list sweep treats a cell's
// profile flag exactly as POST /v1/jobs does — it is the same admission
// path — over every state the cell's job can already be in, and that the
// per-client quota is charged exactly once per cell the sweep enqueues.
func TestSweepCellsHonourProfile(t *testing.T) {
	const owner = "key:sweeper"
	ctx := context.Background()
	cellSpec := func(i int, profile bool) api.JobSpec {
		sp := tinySpec(i)
		return api.JobSpec{Config: "baseline", InlineSpec: &sp, Profile: profile}
	}
	// sweep POSTs a cell-list sweep as the quota owner.
	sweep := func(t *testing.T, base string, cells ...api.JobSpec) api.SweepResponse {
		t.Helper()
		body, err := json.Marshal(api.SweepRequest{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/sweeps", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(apiKeyHeader, strings.TrimPrefix(owner, "key:"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out api.SweepResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell-list sweep: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	inflight := func(srv *Server) int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.inflight[owner]
	}
	// idle boots a daemon whose workers start only when the subtest says.
	idle := func(t *testing.T) (*Server, *client.Client) {
		srv, ts := newIdleServer(t, Options{Workers: 1, MaxInflightPerClient: 8})
		t.Cleanup(func() { srv.Shutdown(ctx) }) //nolint:errcheck // test teardown
		return srv, client.New(ts.URL)
	}
	// queuedJob submits cell i unprofiled, as the quota owner.
	queuedJob := func(t *testing.T, srv *Server, i int) *job {
		t.Helper()
		cell, err := resolveSpec(cellSpec(i, false))
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := srv.submit(cellSpec(i, false), cell, owner, "")
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// wantProfile waits the sweep out and asserts job id then serves a
	// profile with a verdict, its quota charge refunded.
	wantProfile := func(t *testing.T, srv *Server, c *client.Client, sweepID, id string) {
		t.Helper()
		sw, err := c.WaitSweep(ctx, sweepID, 20*time.Millisecond)
		if err != nil || sw.State != api.SweepDone {
			t.Fatalf("sweep did not finish done: %+v, %v", sw, err)
		}
		p, err := c.Profile(ctx, id)
		if err != nil || p.Profile == nil || p.Profile.Verdict.Bottleneck == "" {
			t.Fatalf("profile after the sweep: %+v, %v", p, err)
		}
		if n := inflight(srv); n != 0 {
			t.Fatalf("quota not refunded at the terminal state: %d in flight", n)
		}
	}

	t.Run("done unprofiled job is revived", func(t *testing.T) {
		srv, c := newTestServer(t, Options{Workers: 1, MaxInflightPerClient: 8})
		done := waitTraced(t, c, cellSpec(0, false), "")
		if _, err := c.Profile(ctx, done.ID); err == nil {
			t.Fatal("unprofiled job served a profile")
		}
		resp := sweep(t, c.BaseURL(), cellSpec(0, true))
		if resp.Jobs[0].ID != done.ID || resp.Jobs[0].State.Terminal() {
			t.Fatalf("sweep did not revive the done job: %+v", resp.Jobs[0])
		}
		wantProfile(t, srv, c, resp.ID, done.ID)
	})

	t.Run("queued job is upgraded in place", func(t *testing.T) {
		srv, c := idle(t)
		j := queuedJob(t, srv, 1)
		resp := sweep(t, c.BaseURL(), cellSpec(1, true))
		if got := srv.snapshot(j); !got.Spec.Profile || got.State != api.JobQueued {
			t.Fatalf("queued job not upgraded in place: %+v", got)
		}
		if n := inflight(srv); n != 1 {
			t.Fatalf("upgrade in place charged the quota again: %d in flight, want 1", n)
		}
		srv.startWorkers()
		wantProfile(t, srv, c, resp.ID, j.ID)
	})

	t.Run("duplicate cells OR their flags", func(t *testing.T) {
		srv, c := idle(t)
		resp := sweep(t, c.BaseURL(), cellSpec(2, false), cellSpec(2, true))
		if len(resp.Jobs) != 1 || resp.Deduped != 1 || !resp.Jobs[0].Spec.Profile {
			t.Fatalf("duplicate cells: %d jobs, deduped %d, %+v", len(resp.Jobs), resp.Deduped, resp.Jobs)
		}
		if n := inflight(srv); n != 1 {
			t.Fatalf("one enqueued cell charged %d", n)
		}
		srv.startWorkers()
		wantProfile(t, srv, c, resp.ID, resp.Jobs[0].ID)
	})

	t.Run("canceled job is re-enqueued profiled", func(t *testing.T) {
		srv, c := idle(t)
		j := queuedJob(t, srv, 3)
		if _, err := srv.cancelJob(j.ID); err != nil {
			t.Fatal(err)
		}
		if n := inflight(srv); n != 0 {
			t.Fatalf("cancel did not refund: %d in flight", n)
		}
		resp := sweep(t, c.BaseURL(), cellSpec(3, true))
		if got := srv.snapshot(j); !got.Spec.Profile || got.State != api.JobQueued {
			t.Fatalf("canceled job not re-enqueued profiled: %+v", got)
		}
		if n := inflight(srv); n != 1 {
			t.Fatalf("re-enqueue charged %d, want 1", n)
		}
		srv.startWorkers()
		wantProfile(t, srv, c, resp.ID, j.ID)
	})
}

// TestTransitionAccountingReconciles drives the torture test's traffic mix
// — submits, sweeps, cancels of queued and of running jobs, a drain — and
// at quiescence reconciles the two metrics the state transition feeds with
// the timelines it records: gpusimd_trace_spans_total is the number of
// spans over every job's /trace, and gpusimd_job_stage_seconds counts every
// closed queued / running span, canceled and drained jobs included.
func TestTransitionAccountingReconciles(t *testing.T) {
	srv, ts := newIdleServer(t, Options{Workers: 1, MaxQueue: 4096})
	c := client.New(ts.URL)
	ctx := context.Background()
	tiny := func(i int) client.JobSpec {
		sp := tinySpec(i)
		return client.JobSpec{Config: "baseline", InlineSpec: &sp}
	}
	chain := func(id string) string {
		t.Helper()
		tr, err := c.Trace(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		return strings.Join(names, ",")
	}

	// No workers yet: a job canceled while queued, then re-enqueued.
	queued, err := c.Submit(ctx, tiny(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if got := chain(queued.ID); got != "queued,canceled" {
		t.Fatalf("cancel while queued recorded %q", got)
	}
	if _, err := c.Submit(ctx, tiny(0)); err != nil {
		t.Fatal(err)
	}

	// The torture mix over a small cell pool, workers running.
	srv.startWorkers()
	const goroutines, iterations, cells = 4, 15, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				cell := (g*iterations + i*3) % cells
				switch i % 3 {
				case 0:
					c.Submit(ctx, tiny(cell)) //nolint:errcheck // traffic only
				case 1:
					if job, err := c.Submit(ctx, tiny(cell)); err == nil {
						c.Cancel(ctx, job.ID) //nolint:errcheck // 409 on a finished job is fine
					}
				case 2:
					a, b := tinySpec(cell), tinySpec((cell+1)%cells)
					c.Sweep(ctx, client.SweepRequest{ //nolint:errcheck // traffic only
						Configs: []string{"baseline"}, InlineSpecs: []client.WorkloadSpec{a, b}})
				}
			}
		}(g)
	}
	wg.Wait()
	waitForQuiescence(t, srv, time.Now().Add(30*time.Second))

	// A job canceled while running: its running span closes at the cancel.
	canceledRunning := false
	for _, cfg := range []string{"baseline", "P-inf", "P-dram", "L1-4x", "L2-4x"} {
		job, err := c.Submit(ctx, client.JobSpec{Config: cfg, Bench: testBench})
		if err != nil {
			t.Fatal(err)
		}
		for job.State == client.JobQueued {
			time.Sleep(time.Millisecond)
			if job, err = c.Job(ctx, job.ID); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Cancel(ctx, job.ID); err == nil && chain(job.ID) == "queued,running,canceled" {
			canceledRunning = true
			break
		}
	}
	if !canceledRunning {
		t.Fatal("never caught a job running to cancel it")
	}

	// A drain: the single worker is at most one cell in, so of three slow
	// cells submitted back to back the drain cancels at least two queued.
	var drained []string
	for _, cfg := range []string{"DRAM-4x", "L2+DRAM-4x", "All-4x"} {
		job, err := c.Submit(ctx, client.JobSpec{Config: cfg, Bench: testBench})
		if err != nil {
			t.Fatal(err)
		}
		drained = append(drained, job.ID)
	}
	shctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		t.Fatal(err)
	}
	drainCanceled := 0
	for _, id := range drained {
		if chain(id) == "queued,canceled" {
			drainCanceled++
		}
	}
	if drainCanceled < 2 {
		t.Fatalf("drain canceled %d queued jobs, want at least 2", drainCanceled)
	}

	// Quiescent: every job terminal, every span closed. Reconcile.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	closed := map[string]int{}
	for _, job := range jobs {
		if !job.State.Terminal() {
			t.Fatalf("job %s is %s after the drain", job.ID, job.State)
		}
		tr, err := c.Trace(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		spans += len(tr.Spans)
		for _, sp := range tr.Spans {
			if sp.End == nil {
				t.Fatalf("job %s: span %q still open at quiescence", job.ID, sp.Name)
			}
			closed[sp.Name]++
		}
	}
	sc := scrape(t, ts.URL)
	if got := mustValue(t, sc, "gpusimd_trace_spans_total"); int(got) != spans {
		t.Errorf("gpusimd_trace_spans_total = %v, the traces hold %d spans", got, spans)
	}
	for _, stage := range []string{"queued", "running"} {
		if got := mustValue(t, sc, "gpusimd_job_stage_seconds_count", "stage="+stage); int(got) != closed[stage] {
			t.Errorf("gpusimd_job_stage_seconds_count{stage=%s} = %v, the traces hold %d closed %s spans",
				stage, got, closed[stage], stage)
		}
	}
}

// TestOversizeBodyRejected pins the daemon's request-body caps: a body
// past the cap is answered with the 400 envelope without being read
// whole, and the daemon keeps serving.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts := newIdleServer(t, Options{Workers: 1})
	// Valid JSON behind a pad of whitespace: only the cap can refuse it.
	for _, tc := range []struct {
		path, doc string
		limit     int64
	}{
		{"/v1/jobs", `{"config":"baseline","bench":"` + testBench + `"}`, maxJobBody},
		{"/v1/sweeps", `{"configs":["baseline"],"benches":["` + testBench + `"]}`, maxSweepBody},
	} {
		pad := io.LimitReader(padReader{}, tc.limit)
		resp, err := http.Post(ts.URL+tc.path, "application/json", io.MultiReader(pad, strings.NewReader(tc.doc)))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		var env api.Error
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Code != api.CodeForStatus(http.StatusBadRequest) {
			t.Fatalf("POST %s with a %d-byte pad: status %d, envelope %+v (%v), want the 400 envelope",
				tc.path, tc.limit, resp.StatusCode, env, err)
		}
	}
	var st api.Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK || len(st.Jobs) != 0 {
		t.Fatalf("after the oversize bodies: status %d, jobs %v", resp.StatusCode, st.Jobs)
	}
	var job api.Job
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"config":"baseline","bench":"`+testBench+`"}`), &job); resp.StatusCode != http.StatusCreated {
		t.Fatalf("well-sized submit after the oversize bodies: status %d", resp.StatusCode)
	}
}

// padReader is an endless stream of JSON whitespace.
type padReader struct{}

func (padReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}
