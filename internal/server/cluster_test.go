package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// testCluster is an in-process coordinator plus its worker fleet; every
// worker runs the real Server handler behind httptest, so the cluster
// tests exercise the identical wire path production uses.
type testCluster struct {
	co       *Server
	client   *client.Client
	workers  []*Server
	workerTS []*httptest.Server
}

// newTestCluster wires the given worker Servers (built with New for
// live simulation or newServer for deterministically-idle queues) into
// a coordinator with fast probes. Callers may kill individual worker
// servers mid-test; cleanup tolerates it.
func newTestCluster(t *testing.T, workers []*Server) *testCluster {
	t.Helper()
	tc := &testCluster{workers: workers}
	var addrs []string
	for _, srv := range workers {
		ts := httptest.NewServer(srv.Handler())
		tc.workerTS = append(tc.workerTS, ts)
		addrs = append(addrs, ts.URL)
	}
	co, err := NewCoordinator(CoordinatorOptions{
		Workers:       addrs,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		ProbeFails:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.co = co
	ts := httptest.NewServer(co.Handler())
	tc.client = client.New(ts.URL)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		co.Shutdown(ctx) //nolint:errcheck // test teardown
		for i, wts := range tc.workerTS {
			wts.Close()
			tc.workers[i].Shutdown(ctx) //nolint:errcheck // test teardown
		}
	})
	return tc
}

func newWorker(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newIdleWorker(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	srv, err := newServer(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestClusterByteParity pins the redesign's equivalence claim: the same
// cell and the same sweep, submitted to a single daemon and to a
// 2-worker cluster, produce the same job ID, byte-identical metrics,
// the same sweep ID, and the same speedup grid. Sharding is placement,
// never results.
func TestClusterByteParity(t *testing.T) {
	_, single := newTestServer(t, Options{Workers: 2})
	tc := newTestCluster(t, []*Server{newWorker(t), newWorker(t)})
	ctx := context.Background()
	spec := client.JobSpec{Config: "L2-4x", Bench: testBench}

	sj, err := single.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := tc.client.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sj.ID != cj.ID {
		t.Fatalf("cell IDs diverge: single %s vs cluster %s", sj.ID, cj.ID)
	}
	if !bytes.Equal(canonicalJSON(t, sj.Metrics), canonicalJSON(t, cj.Metrics)) {
		t.Fatalf("metrics diverge:\nsingle:  %s\ncluster: %s", canonicalJSON(t, sj.Metrics), canonicalJSON(t, cj.Metrics))
	}

	req := client.SweepRequest{Configs: []string{"baseline", "L2-4x"}, Benches: []string{testBench}}
	ss, err := single.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := tc.client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ss.ID != cs.ID {
		t.Fatalf("sweep IDs diverge: single %s vs cluster %s", ss.ID, cs.ID)
	}
	if len(cs.Jobs) != len(ss.Jobs) {
		t.Fatalf("sweep job counts diverge: %d vs %d", len(ss.Jobs), len(cs.Jobs))
	}
	for i := range ss.Jobs {
		if ss.Jobs[i].ID != cs.Jobs[i].ID {
			t.Fatalf("sweep job order diverges at %d: %s vs %s", i, ss.Jobs[i].ID, cs.Jobs[i].ID)
		}
	}

	ssw, err := single.WaitSweep(ctx, ss.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	csw, err := tc.client.WaitSweep(ctx, cs.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ssw.State != client.SweepDone || csw.State != client.SweepDone {
		t.Fatalf("states: single %s, cluster %s, want done", ssw.State, csw.State)
	}
	if !bytes.Equal(canonicalJSON(t, ssw.Speedups), canonicalJSON(t, csw.Speedups)) {
		t.Fatalf("speedups diverge:\nsingle:  %s\ncluster: %s", canonicalJSON(t, ssw.Speedups), canonicalJSON(t, csw.Speedups))
	}
}

// TestClusterCrossEntryDedup pins the rendezvous property the design
// leans on: two coordinators with the same membership route the same
// cell to the same worker, so twin submissions through different entry
// points memoize — the fleet simulates the cell exactly once.
func TestClusterCrossEntryDedup(t *testing.T) {
	workers := []*Server{newWorker(t), newWorker(t)}
	a := newTestCluster(t, workers)
	// Second coordinator over the SAME worker servers. Reuse the first
	// cluster's worker listeners so membership views match exactly.
	b := &testCluster{workers: workers, workerTS: a.workerTS}
	var addrs []string
	for _, ts := range a.workerTS {
		addrs = append(addrs, ts.URL)
	}
	co, err := NewCoordinator(CoordinatorOptions{Workers: addrs, ProbeInterval: 50 * time.Millisecond, ProbeFails: 1})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(co.Handler())
	b.client = client.New(bts.URL)
	t.Cleanup(func() {
		bts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		co.Shutdown(ctx) //nolint:errcheck // test teardown
	})

	ctx := context.Background()
	spec := client.JobSpec{Config: "baseline", Bench: testBench}
	ja, err := a.client.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.client.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ja.ID != jb.ID {
		t.Fatalf("entry points named different cells: %s vs %s", ja.ID, jb.ID)
	}

	st, err := a.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.Simulated != 1 {
		t.Fatalf("fleet simulated the twin cell %d times, want 1 (cross-entry dedup broken)", st.Scheduler.Simulated)
	}
	if st.Cluster == nil || st.Cluster.Healthy != 2 {
		t.Fatalf("merged stats cluster view: %+v, want 2 healthy workers", st.Cluster)
	}
}

// TestClusterKillWorkerMidSweep pins failure healing: a sweep sharded
// over a live worker and a wedged one still completes after the wedged
// worker is killed — its cells are re-routed to the survivor, and the
// reassignment is visible in the cluster stats.
func TestClusterKillWorkerMidSweep(t *testing.T) {
	live := newWorker(t)
	// The doomed worker accepts cells but never simulates them, so the
	// sweep cannot finish unless reassignment actually happens.
	wedged := newIdleWorker(t, Options{})
	tc := newTestCluster(t, []*Server{live, wedged})
	ctx := context.Background()

	var cells []client.JobSpec
	for i := 0; i < 8; i++ {
		cells = append(cells, mshrPatch(8*(i+1)))
	}
	resp, err := tc.client.Sweep(ctx, client.SweepRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	status, err := tc.client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wedgedJobs := 0
	for _, w := range status.Workers {
		if w.Addr == tc.workerTS[1].URL {
			wedgedJobs = w.Jobs
		}
	}

	tc.workerTS[1].Close() // kill the wedged worker mid-sweep

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	sw, err := tc.client.WaitSweep(wctx, resp.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.State != client.SweepDone {
		t.Fatalf("sweep state = %s (counts %v), want done after reassignment", sw.State, sw.Counts)
	}
	if sw.Counts[client.JobDone] != len(cells) {
		t.Fatalf("counts = %v, want %d done", sw.Counts, len(cells))
	}
	if wedgedJobs > 0 {
		st, err := tc.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cluster == nil || st.Cluster.ReassignedJobs == 0 {
			t.Fatalf("killed worker owned %d cells but ReassignedJobs = %+v", wedgedJobs, st.Cluster)
		}
	}
}

// TestClusterDrain pins the administrative handover: draining a worker
// moves its cells to peers immediately and excludes it from placement;
// undraining readmits it without moving anything back.
func TestClusterDrain(t *testing.T) {
	// Idle workers keep every cell queued, so drained cells are
	// observably moved rather than racing to completion.
	tc := newTestCluster(t, []*Server{newIdleWorker(t, Options{}), newIdleWorker(t, Options{})})
	ctx := context.Background()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := tc.client.Submit(ctx, mshrPatch(8*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Each admitted cell's run parks on its worker on its own goroutine.
	waitFor(t, "every run to park", func() bool {
		parked := 0
		for _, w := range tc.co.clusterStats().Workers {
			parked += w.Jobs
		}
		return parked == n
	})
	status, err := tc.client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	target := ""
	targetJobs := 0
	for _, w := range status.Workers {
		if w.Jobs > 0 {
			target, targetJobs = w.Addr, w.Jobs
			break
		}
	}
	if target == "" {
		t.Fatalf("no worker owns any of the %d cells: %+v", n, status.Workers)
	}

	after, err := tc.client.Drain(ctx, target, true)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, w := range after.Workers {
		total += w.Jobs
		if w.Addr == target {
			if !w.Draining {
				t.Fatalf("worker %s not marked draining: %+v", target, w)
			}
			if w.Jobs != 0 {
				t.Fatalf("drained worker still owns %d cells", w.Jobs)
			}
		}
	}
	if total != n {
		t.Fatalf("cells lost in drain: %d tracked, want %d", total, n)
	}
	st, err := tc.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.ReassignedJobs < int64(targetJobs) {
		t.Fatalf("ReassignedJobs = %d, want >= %d", st.Cluster.ReassignedJobs, targetJobs)
	}

	undrained, err := tc.client.Drain(ctx, target, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range undrained.Workers {
		if w.Addr == target && (w.Draining || w.Jobs != 0) {
			t.Fatalf("undrain: %+v, want not draining and no cells moved back", w)
		}
	}
}

// TestClusterListMerge pins listing through a coordinator: a page walk
// over the jobs submitted through it honors the cursor contract a single
// daemon does — complete, deduplicated, stably ordered.
func TestClusterListMerge(t *testing.T) {
	tc := newTestCluster(t, []*Server{newIdleWorker(t, Options{}), newIdleWorker(t, Options{})})
	ctx := context.Background()
	const n = 7
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		j, err := tc.client.Submit(ctx, mshrPatch(8*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		want[j.ID] = true
	}

	for _, limit := range []int{1, 2, 3, n + 1} {
		var walked []api.Job
		token := ""
		for pages := 0; ; pages++ {
			if pages > n+1 {
				t.Fatalf("limit %d: fleet walk did not terminate", limit)
			}
			page, err := tc.client.ListJobs(ctx, client.ListOptions{Limit: limit, PageToken: token})
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, page.Jobs...)
			if page.NextPageToken == "" {
				break
			}
			token = page.NextPageToken
		}
		if len(walked) != n {
			t.Fatalf("limit %d: walked %d jobs across the fleet, want %d", limit, len(walked), n)
		}
		seen := make(map[string]bool)
		for i, j := range walked {
			if seen[j.ID] || !want[j.ID] {
				t.Fatalf("limit %d: job %s duplicated or unexpected in merged listing", limit, j.ID)
			}
			seen[j.ID] = true
			if i > 0 {
				a, b := walked[i-1], walked[i]
				if a.SubmittedAt.After(b.SubmittedAt) || (a.SubmittedAt.Equal(b.SubmittedAt) && a.ID >= b.ID) {
					t.Fatalf("limit %d: merged listing out of order at %d", limit, i)
				}
			}
		}
	}
}

// TestClusterQuotaAtEntryPoint pins that admission is the coordinator's
// own: built with a per-client quota of one, it answers a client's second
// submit with 429 and a retry hint itself, whatever its workers would say.
func TestClusterQuotaAtEntryPoint(t *testing.T) {
	co, _, _, _ := countedCluster(t, 1, Options{MaxInflightPerClient: 1}, Options{})
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.Submit(ctx, mshrPatch(8)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, mshrPatch(16))
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) {
		t.Fatalf("second submit through a quota-1 coordinator: err = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Code != api.CodeResourceExhausted {
		t.Fatalf("got %d %s, want 429 %s", apiErr.StatusCode, apiErr.Code, api.CodeResourceExhausted)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", apiErr.RetryAfter)
	}
}
