package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// TestConcurrencyTorture hammers one daemon from many goroutines with
// overlapping submit/cancel/sweep traffic over a small cell pool while a
// tightly bounded disk cache evicts underneath, scraping /metrics
// mid-flight. One in traceSample submissions carries a caller-chosen trace
// ID. It is the -race exercise for the whole serving path; at quiescence
// it asserts the stats invariants, that /metrics and /v1/stats reconcile
// exactly, and that every trace-sampled job's timeline is a complete chain.
func TestConcurrencyTorture(t *testing.T) {
	size := entrySize(t)
	srv, c := newTestServer(t, Options{
		Workers:       4,
		MaxQueue:      4096,
		CacheDir:      t.TempDir(),
		CacheMaxBytes: 3*size + size/2, // well under the 8-cell working set
	})
	ctx := context.Background()
	base := c.BaseURL()

	const (
		goroutines  = 8
		iterations  = 25
		cells       = 8
		traceSample = 10
	)
	var server5xx, submits atomic.Int64
	var sampledMu sync.Mutex
	sampled := map[string]string{} // job ID → the trace ID it was last submitted with
	submit := func(spec client.JobSpec) (*client.Job, error) {
		n := submits.Add(1)
		if n%traceSample != 0 {
			return c.Submit(ctx, spec)
		}
		traceID := fmt.Sprintf("torture-%04d", n)
		job, err := c.SubmitTraced(ctx, spec, traceID)
		if err == nil {
			sampledMu.Lock()
			sampled[job.ID] = traceID
			sampledMu.Unlock()
		}
		return job, err
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				cell := (g*iterations + i*3) % cells
				sp := tinySpec(cell)
				spec := client.JobSpec{Config: "baseline", InlineSpec: &sp}
				checkErr := func(err error) {
					var apiErr *client.APIError
					switch {
					case err == nil:
					case !errorsAs(err, &apiErr):
						t.Errorf("goroutine %d iter %d: transport error %v", g, i, err)
					case apiErr.StatusCode >= 500:
						server5xx.Add(1)
						t.Errorf("goroutine %d iter %d: server error %v", g, i, err)
					}
				}
				switch i % 5 {
				case 0, 1:
					_, err := submit(spec)
					checkErr(err)
				case 2:
					job, err := submit(spec)
					checkErr(err)
					if err == nil {
						// Cancel whatever state the job is in; 409 on a
						// finished job is the documented answer, not a bug.
						_, err = c.Cancel(ctx, job.ID)
						checkErr(err)
					}
				case 3:
					a, b := tinySpec(cell), tinySpec((cell+1)%cells)
					_, err := c.Sweep(ctx, client.SweepRequest{
						Configs:     []string{"baseline"},
						InlineSpecs: []client.WorkloadSpec{a, b},
					})
					checkErr(err)
				case 4:
					if _, err := c.Stats(ctx); err != nil {
						checkErr(err)
					}
					if g == 0 {
						scrape(t, base) // exposition must stay valid mid-load
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Canceled cells may sit idle; resubmit every cell so the final
	// state of the whole pool is done, then drain.
	for i := 0; i < cells; i++ {
		sp := tinySpec(i)
		if _, err := c.Submit(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}); err != nil {
			t.Fatalf("final resubmit %d: %v", i, err)
		}
	}
	waitForQuiescence(t, srv, time.Now().Add(30*time.Second))

	if n := server5xx.Load(); n != 0 {
		t.Fatalf("%d server-side 5xx responses under load", n)
	}

	st := srv.Stats()
	// Invariants: every job terminal, the table is exactly the cell
	// pool, every cell ends done, and the scheduler never simulated one
	// cell twice (content addressing + memoization under concurrency).
	total := 0
	for state, n := range st.Jobs {
		if !state.Terminal() && n > 0 {
			t.Errorf("non-terminal jobs at quiescence: %s=%d", state, n)
		}
		total += n
	}
	if total != cells || st.Jobs[api.JobDone] != cells {
		t.Errorf("job table = %v, want exactly %d done", st.Jobs, cells)
	}
	if st.Scheduler.Simulated > cells {
		t.Errorf("simulated %d distinct runs for %d cells", st.Scheduler.Simulated, cells)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d at quiescence", st.QueueDepth)
	}
	if st.DiskCacheEvictions == 0 {
		t.Errorf("no evictions despite cache bound %d < working set %d", st.DiskCacheMaxBytes, int64(cells)*size)
	}
	if st.DiskCacheBytes > st.DiskCacheMaxBytes {
		t.Errorf("disk cache over bound: %d > %d", st.DiskCacheBytes, st.DiskCacheMaxBytes)
	}

	// The exposition must parse cleanly and agree exactly with the
	// quiescent stats — counter for counter, gauge for gauge.
	sc := scrape(t, base)
	reconcile(t, sc, srv.Stats())
	for _, ser := range sc.Series {
		if ser.Name == "gpusimd_http_requests_total" && strings.HasPrefix(ser.Labels["code"], "5") {
			t.Errorf("5xx recorded in request metrics: %v = %v", ser.Labels, ser.Value)
		}
	}

	// At quiescence no span may be open: an open one means the lifecycle
	// lost a transition, not that work is in flight. Cells are content
	// addressed, so a sampled job may predate its sampled submission and
	// carry an earlier trace ID; one must be present, not equal.
	if len(sampled) == 0 {
		t.Fatalf("no submission of %d was trace-sampled (1 in %d)", submits.Load(), traceSample)
	}
	for id, traceID := range sampled {
		tr, err := c.Trace(ctx, id)
		if err != nil {
			t.Fatalf("trace of job %s (sampled as %s): %v", id, traceID, err)
		}
		if tr.TraceID == "" {
			t.Errorf("job %s (sampled as %s): no trace ID on the timeline", id, traceID)
		}
		if err := checkSpanChain(tr.Spans); err != nil {
			t.Errorf("job %s (sampled as %s): %v", id, traceID, err)
		}
	}
}
