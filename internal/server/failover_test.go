package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// countedCluster is a coordinator built with coOpts over n idle workers
// built with workerOpts (submitted cells stay queued, so every run stays
// parked on its worker and no read is answered from a finished job),
// whose prober effectively never fires: every health change in these
// tests comes from the request path. workers are the Servers behind the
// listeners; requests counts what the workers are asked.
func countedCluster(t *testing.T, n int, coOpts, workerOpts Options) (*Server, []*httptest.Server, []*Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	var servers []*httptest.Server
	var workers []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		srv := newIdleWorker(t, workerOpts)
		workers = append(workers, srv)
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
		})
		servers = append(servers, ts)
		addrs = append(addrs, ts.URL)
	}
	co, err := NewCoordinator(CoordinatorOptions{Workers: addrs, ProbeInterval: time.Hour, Options: coOpts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) }) //nolint:errcheck // test teardown
	return co, servers, workers, &requests
}

// quietCluster is countedCluster with default options and the given
// coordinator logger.
func quietCluster(t *testing.T, n int, logger *slog.Logger) (*Server, []*httptest.Server) {
	t.Helper()
	co, servers, _, _ := countedCluster(t, n, Options{Logger: logger}, Options{})
	return co, servers
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// submitCell POSTs spec to h and returns the job it answered with.
func submitCell(t *testing.T, h http.Handler, spec client.JobSpec) api.Job {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(h, http.MethodPost, "/v1/jobs", string(body))
	var job api.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	return job
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// placement is the worker a one-cell coordinator's run is parked on ("" if
// none).
func placement(co *Server) string {
	for _, w := range co.clusterStats().Workers {
		if w.Jobs > 0 {
			return w.Addr
		}
	}
	return ""
}

// TestCellVerbsShareOneFailoverRule kills the worker a running cell is
// parked on — its listener and its connections, as a crashed process
// would — and pins the one rule every per-cell verb now follows: the run
// moves to the live worker by itself, with no read to prompt it, and GET,
// profile, trace and DELETE are all answered from the coordinator's own
// table, never with a 503.
func TestCellVerbsShareOneFailoverRule(t *testing.T) {
	for _, tc := range []struct {
		name, method, suffix string
		status               int
	}{
		{"GET job", http.MethodGet, "", http.StatusOK},
		{"profile", http.MethodGet, "/profile", http.StatusNotFound}, // running: no profile yet
		{"trace", http.MethodGet, "/trace", http.StatusOK},
		{"DELETE", http.MethodDelete, "", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, servers, _, requests := countedCluster(t, 2, Options{}, Options{})
			h := co.Handler()
			job := submitCell(t, h, client.JobSpec{Config: "baseline", Bench: testBench})
			waitFor(t, "the run to park on its worker", func() bool { return requests.Load() == 2 })
			dead := placement(co)
			for _, ts := range servers {
				if ts.URL == dead {
					ts.Listener.Close()
					ts.CloseClientConnections()
				}
			}
			waitFor(t, "the run to move to the live worker", func() bool {
				p := placement(co)
				return p != "" && p != dead
			})
			for _, w := range co.clusterStats().Workers {
				if w.Addr == dead && w.Healthy {
					t.Fatal("dead worker still marked healthy")
				}
			}

			rec := serve(h, tc.method, "/v1/jobs/"+job.ID+tc.suffix, "")
			if rec.Code != tc.status {
				t.Fatalf("status %d body %s, want %d from the coordinator's table", rec.Code, rec.Body, tc.status)
			}
			if tc.suffix == "" {
				var got api.Job
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.ID != job.ID {
					t.Fatalf("body %s, want job %s", rec.Body, job.ID)
				}
			}
		})
	}
}

// TestReadsCostNoWorkerRequests pins that reads are the coordinator's
// own: polling a pending 16-cell sweep and each of its jobs asks the
// workers nothing. (Each run is one POST and one parked long-poll.)
func TestReadsCostNoWorkerRequests(t *testing.T) {
	co, _, _, requests := countedCluster(t, 2, Options{}, Options{})
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()
	var cells []client.JobSpec
	for i := 0; i < 16; i++ {
		cells = append(cells, mshrPatch(8*(i+1)))
	}
	resp, err := c.Sweep(ctx, client.SweepRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all 16 runs to park", func() bool { return requests.Load() == 32 })

	for i := 0; i < 10; i++ {
		sw, err := c.GetSweep(ctx, resp.ID)
		if err != nil || sw.State != client.SweepRunning {
			t.Fatalf("sweep GET: %+v, %v, want running", sw, err)
		}
	}
	for _, j := range resp.Jobs {
		if got, err := c.Job(ctx, j.ID); err != nil || got.State != client.JobRunning {
			t.Fatalf("job GET: %+v, %v, want running", got, err)
		}
	}
	if n := requests.Load() - 32; n != 0 {
		t.Fatalf("10 sweep GETs and 16 job GETs cost %d worker requests, want 0", n)
	}
}

// TestWorkerRefusalDelaysRun pins that a worker's refusal is not a
// failure: with a worker quota of one, the second cell's run stays running
// at the coordinator through the worker's 429s and is placed once the
// first cell is canceled through the coordinator — which also pins that
// the cancel is forwarded (else the worker's quota would never free).
func TestWorkerRefusalDelaysRun(t *testing.T) {
	co, servers, _, requests := countedCluster(t, 1, Options{}, Options{MaxInflightPerClient: 1})
	h := co.Handler()
	a := submitCell(t, h, mshrPatch(8))
	b := submitCell(t, h, mshrPatch(16))
	worker := client.New(servers[0].URL)
	ctx := context.Background()
	workerJobs := func() []api.Job {
		list, err := worker.ListJobs(ctx, client.ListOptions{State: client.JobQueued})
		if err != nil {
			t.Fatal(err)
		}
		return list.Jobs
	}
	// One run parks (POST, long-poll); the other is refused, waits out the
	// Retry-After and is refused again.
	waitFor(t, "a refused run to retry", func() bool { return requests.Load() >= 4 })
	placed := workerJobs()
	if len(placed) != 1 {
		t.Fatalf("worker holds %d jobs, want the one its quota admits", len(placed))
	}
	first, second := a, b
	if placed[0].ID == b.ID {
		first, second = b, a
	}
	jobState := func(id string) api.JobState {
		var j api.Job
		json.Unmarshal(serve(h, http.MethodGet, "/v1/jobs/"+id, "").Body.Bytes(), &j) //nolint:errcheck // state checked
		return j.State
	}
	if st := jobState(second.ID); st != api.JobRunning {
		t.Fatalf("refused cell is %s at the coordinator, want running", st)
	}

	if rec := serve(h, http.MethodDelete, "/v1/jobs/"+first.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}
	waitFor(t, "the refused cell to be placed", func() bool {
		jobs := workerJobs()
		return len(jobs) == 1 && jobs[0].ID == second.ID
	})
	if st := jobState(second.ID); st != api.JobRunning {
		t.Fatalf("placed cell is %s at the coordinator, want running", st)
	}
}

// TestCoordinatorShutdownIsPrompt: a coordinator's running jobs are runs
// parked on workers, not simulations, so Shutdown does not wait for idle
// workers to finish them — and it leaves the workers' copies of the jobs,
// which other entry points may share, queued.
func TestCoordinatorShutdownIsPrompt(t *testing.T) {
	co, servers, _, requests := countedCluster(t, 2, Options{}, Options{})
	h := co.Handler()
	for i := 0; i < 8; i++ {
		submitCell(t, h, mshrPatch(8*(i+1)))
	}
	waitFor(t, "all 8 runs to park", func() bool { return requests.Load() == 16 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := co.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown with 8 parked runs took %v, want < 1 s", d)
	}
	queued := 0
	for _, ts := range servers {
		list, err := client.New(ts.URL).ListJobs(ctx, client.ListOptions{State: client.JobQueued})
		if err != nil {
			t.Fatal(err)
		}
		queued += len(list.Jobs)
	}
	if queued != 8 {
		t.Fatalf("workers hold %d queued jobs after the coordinator's shutdown, want all 8", queued)
	}
}

// TestWorkerShutdownMovesRun: a worker shutting down cancels its queued
// jobs and answers 503 while its listener and health probe still answer;
// the run parked on it must move to the peer at once, not cycle there.
func TestWorkerShutdownMovesRun(t *testing.T) {
	co, servers, workers, requests := countedCluster(t, 2, Options{}, Options{})
	h := co.Handler()
	job := submitCell(t, h, client.JobSpec{Config: "baseline", Bench: testBench})
	waitFor(t, "the run to park on its worker", func() bool { return requests.Load() == 2 })
	dead := placement(co)
	for i, ts := range servers {
		if ts.URL == dead {
			workers[i].Shutdown(context.Background()) //nolint:errcheck // idle: returns at once
		}
	}
	waitFor(t, "the run to move to the live worker", func() bool {
		p := placement(co)
		return p != "" && p != dead
	})
	if cs := co.clusterStats(); cs.ReassignedJobs != 1 || cs.Healthy != 1 {
		t.Fatalf("reassigned %d runs, %d healthy workers; want 1 and 1", cs.ReassignedJobs, cs.Healthy)
	}
	var got api.Job
	json.Unmarshal(serve(h, http.MethodGet, "/v1/jobs/"+job.ID, "").Body.Bytes(), &got) //nolint:errcheck // state checked
	if got.State != api.JobRunning {
		t.Fatalf("moved cell is %s at the coordinator, want running", got.State)
	}
}

// TestDrainingWorkerIsNotPolledHot: a worker that is shutting down answers
// every long-poll round at once, for as long as the cell it is running
// takes to finish. The run parked on it must pause between those rounds,
// as any client's Wait does, instead of asking again in a tight loop.
func TestDrainingWorkerIsNotPolledHot(t *testing.T) {
	var polls atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			polls.Add(1)
		}
		writeJSON(w, http.StatusOK, api.Job{ID: "cell", State: api.JobRunning})
	}))
	t.Cleanup(worker.Close)
	co, err := NewCoordinator(CoordinatorOptions{Workers: []string{worker.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) }) //nolint:errcheck // test teardown
	submitCell(t, co.Handler(), mshrPatch(8))
	waitFor(t, "the first long-poll round", func() bool { return polls.Load() > 0 })
	time.Sleep(time.Second)
	if n := polls.Load(); n > 20 {
		t.Fatalf("the run asked a draining worker %d times in a second, want a pause between rounds", n)
	}
}

// TestCoordinatorParksEveryCell: a coordinator holds back no cell of a
// sweep — each gets its run on its worker at once, so the worker's own
// queue and pool bound the work however many cores it has.
func TestCoordinatorParksEveryCell(t *testing.T) {
	co, _, workers, requests := countedCluster(t, 1, Options{}, Options{})
	var cells []client.JobSpec
	for i := 0; i < 40; i++ {
		cells = append(cells, mshrPatch(8*(i+1)))
	}
	body, _ := json.Marshal(client.SweepRequest{Cells: cells})
	if rec := serve(co.Handler(), http.MethodPost, "/v1/sweeps", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	waitFor(t, "all 40 runs to park", func() bool { return requests.Load() == 80 })
	if st := workers[0].Stats(); st.QueueDepth != 40 {
		t.Fatalf("worker queue holds %d cells, want all 40", st.QueueDepth)
	}
}

// TestCoordinatorQueueBoundCoversRuns: every queued cell gets a run at
// once, so a coordinator's -max-queue bounds its queued jobs and its runs
// together — else it would bind nothing.
func TestCoordinatorQueueBoundCoversRuns(t *testing.T) {
	co, _, _, requests := countedCluster(t, 1, Options{MaxQueue: 1}, Options{})
	h := co.Handler()
	submitCell(t, h, mshrPatch(8))
	waitFor(t, "the run to park", func() bool { return requests.Load() == 2 })
	body, _ := json.Marshal(mshrPatch(16))
	if rec := serve(h, http.MethodPost, "/v1/jobs", string(body)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second submit over a one-entry queue: %d %s, want 503", rec.Code, rec.Body)
	}
	if st := co.Stats(); st.QueueDepth != 1 {
		t.Fatalf("queue depth %d, want the one parked run", st.QueueDepth)
	}
}

// TestCoordinatorRefusesDaemonOptions: a coordinator simulates nothing,
// so the daemon's -j is an error naming the flag (gpusimd exits 2 with
// it), not silently ignored.
func TestCoordinatorRefusesDaemonOptions(t *testing.T) {
	_, err := NewCoordinator(CoordinatorOptions{Workers: []string{"127.0.0.1:1"}, Options: Options{Workers: 2}})
	if err == nil || !strings.Contains(err.Error(), "-j ") {
		t.Errorf("err = %v, want an error naming -j", err)
	}
}

// TestCoordinatorRestartServesFromDisk: a coordinator keeps its own disk
// tier, so one restarted on its -cache-dir answers a finished sweep from
// disk — asking its worker nothing — with the same speedups.
func TestCoordinatorRestartServesFromDisk(t *testing.T) {
	worker := newWorker(t)
	var requests atomic.Int64
	h := worker.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			requests.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		worker.Shutdown(context.Background()) //nolint:errcheck // test teardown
	})
	dir := t.TempDir()
	ctx := context.Background()
	req := client.SweepRequest{Configs: []string{"baseline", "L2-4x"}, Benches: []string{testBench}}
	sweep := func() *client.Sweep {
		t.Helper()
		co, err := NewCoordinator(CoordinatorOptions{Workers: []string{ts.URL}, ProbeInterval: time.Hour,
			Options: Options{CacheDir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		cts := httptest.NewServer(co.Handler())
		defer func() {
			cts.Close()
			co.Shutdown(ctx) //nolint:errcheck // test teardown
		}()
		c := client.New(cts.URL)
		resp, err := c.Sweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := c.WaitSweep(ctx, resp.ID, 20*time.Millisecond)
		if err != nil || sw.State != client.SweepDone {
			t.Fatalf("sweep: %+v, %v, want done", sw, err)
		}
		return sw
	}

	first := sweep()
	asked := requests.Load()
	again := sweep()
	if n := requests.Load() - asked; n != 0 {
		t.Fatalf("the restarted coordinator asked its worker %d times, want 0", n)
	}
	for _, j := range again.Jobs {
		if j.Tier != "disk" {
			t.Errorf("job %s answered from tier %q, want disk", j.ID, j.Tier)
		}
	}
	if a, b := canonicalJSON(t, first.Speedups), canonicalJSON(t, again.Speedups); !bytes.Equal(a, b) {
		t.Fatalf("speedups diverge after the restart:\nfirst: %s\nagain: %s", a, b)
	}
}

// TestCanceledRemoteRunResubmits: canceling a job whose run is parked on a
// worker ends that run without an answer, and the coordinator's scheduler
// must forget it — else the resubmitted cell would fail with the canceled
// run's error instead of running.
func TestCanceledRemoteRunResubmits(t *testing.T) {
	co, _, workers, requests := countedCluster(t, 1, Options{}, Options{})
	h := co.Handler()
	job := submitCell(t, h, mshrPatch(8))
	waitFor(t, "the run to park on its worker", func() bool { return requests.Load() == 2 })
	if rec := serve(h, http.MethodDelete, "/v1/jobs/"+job.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}
	workers[0].startWorkers()
	submitCell(t, h, mshrPatch(8))
	var got api.Job
	json.Unmarshal(serve(h, http.MethodGet, "/v1/jobs/"+job.ID+"?wait=60s", "").Body.Bytes(), &got) //nolint:errcheck // state checked
	if got.State != api.JobDone {
		t.Fatalf("resubmitted cell is %s (%s), want done", got.State, got.Error)
	}
}

// lockedBuffer serializes the writes of a slog handler used from several
// goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerLossLogsOneLine: gpusimd points the coordinator's logger at
// stderr, and a lost worker must show up there exactly once however many
// requests then trip over it.
func TestWorkerLossLogsOneLine(t *testing.T) {
	var stderr lockedBuffer
	co, servers := quietCluster(t, 1, slog.New(slog.NewTextHandler(&stderr, nil)))
	servers[0].Close()
	h := co.Handler()
	for i := 0; i < 3; i++ {
		if rec := serve(h, http.MethodGet, "/v1/stats", ""); rec.Code != http.StatusOK {
			t.Fatalf("stats: %d %s", rec.Code, rec.Body)
		}
	}
	out := strings.TrimSpace(stderr.String())
	if lines := strings.Split(out, "\n"); len(lines) != 1 ||
		!strings.Contains(out, "worker health transition") || !strings.Contains(out, "newState=unhealthy") {
		t.Fatalf("worker loss logged %d lines, want one health transition:\n%s", len(lines), out)
	}
}

// TestClientCancelDoesNotFailWorker: a request whose own client went away
// fails its upstream calls with context.Canceled; that is no evidence
// against the worker, which must stay in placement.
func TestClientCancelDoesNotFailWorker(t *testing.T) {
	co, _ := quietCluster(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil).WithContext(ctx))
	if cs := co.clusterStats(); cs.Healthy != 1 {
		t.Fatalf("a canceled client request left %d healthy workers, want 1", cs.Healthy)
	}
}
