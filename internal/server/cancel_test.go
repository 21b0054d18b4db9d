package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// TestCancelStateMachine pins DELETE /v1/jobs/{id} for every lifecycle
// state, asserting the response code, the state GET reports afterwards,
// and that /v1/stats counts the job under the same state — the
// consistency this endpoint is specified by.
func TestCancelStateMachine(t *testing.T) {
	cases := []struct {
		from       api.JobState
		wantStatus int
		wantState  api.JobState
	}{
		{api.JobQueued, http.StatusOK, api.JobCanceled},
		{api.JobRunning, http.StatusOK, api.JobCanceled},
		{api.JobCanceled, http.StatusOK, api.JobCanceled},
		{api.JobDone, http.StatusConflict, api.JobDone},
		{api.JobFailed, http.StatusConflict, api.JobFailed},
	}
	for _, tc := range cases {
		t.Run(string(tc.from), func(t *testing.T) {
			// Workers are not started, so the submitted job stays queued
			// until the test forces the state under test.
			srv, err := newServer(Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			cell, err := resolveSpec(api.JobSpec{Config: "baseline", Bench: testBench})
			if err != nil {
				t.Fatal(err)
			}
			j, _, err := srv.submit(api.JobSpec{Config: "baseline", Bench: testBench}, cell, "test", "")
			if err != nil {
				t.Fatal(err)
			}
			srv.mu.Lock()
			j.State = tc.from
			if tc.from != api.JobQueued {
				srv.pending = nil // mimic the worker having popped it
			}
			srv.mu.Unlock()

			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("DELETE from %s: status %d, want %d", tc.from, resp.StatusCode, tc.wantStatus)
			}
			if got := srv.snapshot(j).State; got != tc.wantState {
				t.Fatalf("GET after DELETE from %s: state %s, want %s", tc.from, got, tc.wantState)
			}
			st := srv.Stats()
			if st.Jobs[tc.wantState] != 1 {
				t.Fatalf("stats after DELETE from %s disagree with job state: %v, want {%s:1}", tc.from, st.Jobs, tc.wantState)
			}
			for state, n := range st.Jobs {
				if state != tc.wantState && n != 0 {
					t.Fatalf("stats count a phantom %s job: %v", state, st.Jobs)
				}
			}
		})
	}
}

func TestCancelUnknownJobIs404(t *testing.T) {
	srv, err := newServer(Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestCancelRunningJobStaysCanceled is the end-to-end regression test
// for the mid-simulation DELETE inconsistency: the worker that finishes
// the non-preemptible simulation must not overwrite the canceled state,
// so GET /v1/jobs/{id} and /v1/stats keep agreeing; the result still
// lands in the caches, making a resubmission nearly free.
func TestCancelRunningJobStaysCanceled(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	spec := client.JobSpec{Config: "baseline", Bench: testBench}

	job, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the cell to start simulating, not merely for the job to
	// read running: the worker marks it running before the scheduler
	// checks the run's context, and a DELETE in that gap cancels the cell
	// before anything is simulated.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Scheduler.Simulated == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cell never started simulating")
		}
		time.Sleep(time.Millisecond)
	}

	canceled, err := c.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != client.JobCanceled {
		t.Fatalf("DELETE running job: state %s, want canceled", canceled.State)
	}

	// Let the worker finish the in-flight simulation, then check it did
	// not resurrect the job.
	waitForQuiescence(t, srv, deadline)
	if got := srv.snapshot(jobRecord(t, srv, job.ID)).State; got != api.JobCanceled {
		t.Fatalf("worker overwrote canceled state with %s", got)
	}
	st := srv.Stats()
	if st.Jobs[api.JobCanceled] != 1 || st.Jobs[api.JobDone] != 0 {
		t.Fatalf("stats disagree with canceled job: %v", st.Jobs)
	}
	if st.Scheduler.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (the in-flight cell completes)", st.Scheduler.Simulated)
	}

	// Resubmitting re-enqueues the cell; the memoized result makes it a
	// cache hit, not a second simulation.
	re, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if re.State != client.JobDone || re.Metrics == nil {
		t.Fatalf("resubmitted job: %s (%s)", re.State, re.Error)
	}
	if st := srv.Stats(); st.Scheduler.Simulated != 1 || st.Scheduler.CacheHits != 1 {
		t.Fatalf("resubmission re-simulated: %+v", st.Scheduler)
	}
}

// jobRecord fetches the server-side record for id.
func jobRecord(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	j, ok := srv.jobs[id]
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return j
}

// waitForQuiescence polls until no job is queued or running and no
// worker is inside a simulation.
func waitForQuiescence(t *testing.T, srv *Server, deadline time.Time) {
	t.Helper()
	for {
		st := srv.Stats()
		if st.QueueDepth == 0 && st.Jobs[api.JobQueued] == 0 && st.Jobs[api.JobRunning] == 0 && srv.running.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never went quiescent: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
