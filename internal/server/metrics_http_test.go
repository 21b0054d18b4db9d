package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/metrics"
)

// scrape fetches /metrics and parses it with the package's own strict
// exposition validator — the "scrapes cleanly" gate.
func scrape(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.Parse(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return sc
}

// mustValue asserts a series exists and returns it.
func mustValue(t *testing.T, sc *metrics.Scrape, name string, labels ...string) float64 {
	t.Helper()
	v, ok := sc.Value(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v missing from exposition", name, labels)
	}
	return v
}

// reconcile asserts that every counter and gauge /metrics shares with
// /v1/stats carries exactly the same value.
func reconcile(t *testing.T, sc *metrics.Scrape, st api.Stats) {
	t.Helper()
	checks := []struct {
		name   string
		labels []string
		want   float64
	}{
		{"gpusimd_scheduler_simulated_total", nil, float64(st.Scheduler.Simulated)},
		{"gpusimd_scheduler_memo_hits_total", nil, float64(st.Scheduler.CacheHits)},
		{"gpusimd_scheduler_result_cache_hits_total", nil, float64(st.Scheduler.DiskHits)},
		{"gpusimd_scheduler_sim_cycles_total", nil, float64(st.Scheduler.SimCycles)},
		{"gpusimd_workers", nil, float64(st.Workers)},
		{"gpusimd_queue_depth", nil, float64(st.QueueDepth)},
		{"gpusimd_queue_capacity", nil, float64(st.QueueCap)},
		{"gpusimd_rate_limited_total", nil, float64(st.RateLimited)},
		{"gpusimd_quota_denied_total", nil, float64(st.QuotaDenied)},
	}
	for _, state := range jobStates {
		checks = append(checks, struct {
			name   string
			labels []string
			want   float64
		}{"gpusimd_jobs", []string{"state=" + string(state)}, float64(st.Jobs[state])})
	}
	if st.CacheDir != "" {
		checks = append(checks,
			struct {
				name   string
				labels []string
				want   float64
			}{"gpusimd_disk_cache_entries", nil, float64(st.DiskCacheEntries)},
			struct {
				name   string
				labels []string
				want   float64
			}{"gpusimd_disk_cache_bytes", nil, float64(st.DiskCacheBytes)},
			struct {
				name   string
				labels []string
				want   float64
			}{"gpusimd_disk_cache_max_bytes", nil, float64(st.DiskCacheMaxBytes)},
			struct {
				name   string
				labels []string
				want   float64
			}{"gpusimd_disk_cache_evictions_total", nil, float64(st.DiskCacheEvictions)})
	}
	for _, c := range checks {
		if got := mustValue(t, sc, c.name, c.labels...); got != c.want {
			t.Errorf("metric %s%v = %v, stats say %v", c.name, c.labels, got, c.want)
		}
	}
}

func TestMetricsEndpointReconcilesWithStats(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2, CacheDir: t.TempDir(), CacheMaxBytes: 1 << 20})
	ctx := context.Background()
	base := c.BaseURL()

	sp := tinySpec(0)
	if _, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Duplicate submission: a memo hit, visible in both views.
	if _, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	sc := scrape(t, base)
	st := srv.Stats()
	reconcile(t, sc, st)
	if st.Scheduler.Simulated != 1 || st.Scheduler.SimCycles == 0 {
		t.Fatalf("scheduler stats = %+v, want 1 simulation with nonzero cycles", st.Scheduler)
	}

	// The scrape itself and the submissions must appear in the request
	// counters, labeled by route pattern, with latency histograms that
	// carry the same observation counts.
	if v := mustValue(t, sc, "gpusimd_http_requests_total", "endpoint=POST /v1/jobs", "code=201"); v != 1 {
		t.Fatalf("POST 201 count = %v, want 1", v)
	}
	if v := mustValue(t, sc, "gpusimd_http_requests_total", "endpoint=POST /v1/jobs", "code=200"); v != 1 {
		t.Fatalf("POST 200 (dedup) count = %v, want 1", v)
	}
	reqs := sc.Sum("gpusimd_http_requests_total")
	if obs, ok := sc.Value("gpusimd_http_request_seconds_count", "endpoint=POST /v1/jobs"); !ok || obs != 2 {
		t.Fatalf("latency observations for POST /v1/jobs = %v,%v want 2", obs, ok)
	}
	if reqs < 3 { // 2 submits + at least one poll
		t.Fatalf("total requests = %v, want >= 3", reqs)
	}
}

func TestRateLimitReturns429WithRetryAfter(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1, RateLimit: 0.01, RateBurst: 2})
	ctx := context.Background()

	// Burst of 2: two mutating requests pass, the third is throttled.
	for i := 0; i < 2; i++ {
		sp := tinySpec(i)
		if _, err := c.Submit(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	sp := tinySpec(2)
	_, err := c.Submit(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp})
	var apiErr *client.APIError
	if !errorsAs(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %v, want 429", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", apiErr.RetryAfter)
	}

	// Read-side endpoints stay unthrottled.
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats while throttled: %v", err)
	}
	if st := srv.Stats(); st.RateLimited != 1 {
		t.Fatalf("rateLimited = %d, want 1", st.RateLimited)
	}
}

func TestPerClientInflightQuota(t *testing.T) {
	srv, err := newServer(Options{Workers: 1, MaxInflightPerClient: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(key string, i int) (*http.Response, error) {
		sp := tinySpec(i)
		body, err := json.Marshal(api.JobSpec{Config: "baseline", InlineSpec: &sp})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		req.Header.Set(apiKeyHeader, key)
		return http.DefaultClient.Do(req)
	}
	status := func(key string, i int) int {
		resp, err := submit(key, i)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Workers are not started, so every accepted job stays in flight.
	if s := status("alice", 0); s != http.StatusCreated {
		t.Fatalf("alice job 0: %d", s)
	}
	if s := status("alice", 1); s != http.StatusCreated {
		t.Fatalf("alice job 1: %d", s)
	}
	resp, err := submit("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}

	// Another client has its own budget.
	if s := status("bob", 3); s != http.StatusCreated {
		t.Fatalf("bob job: %d", s)
	}

	// Canceling one of alice's jobs refunds her quota.
	srv.mu.Lock()
	var aliceJob *job
	for _, j := range srv.jobs {
		if j.owner == "key:alice" {
			aliceJob = j
			break
		}
	}
	srv.mu.Unlock()
	if aliceJob == nil {
		t.Fatal("no job charged to alice")
	}
	if _, err := srv.cancelJob(aliceJob.ID); err != nil {
		t.Fatal(err)
	}
	if s := status("alice", 4); s != http.StatusCreated {
		t.Fatalf("alice after refund: %d, want 201", s)
	}
	if st := srv.Stats(); st.QuotaDenied != 1 {
		t.Fatalf("quotaDenied = %d, want 1", st.QuotaDenied)
	}
}

// TestSweepQuotaIsAtomic: a sweep that would exceed the client's quota
// rejects whole — no cells are enqueued.
func TestSweepQuotaIsAtomic(t *testing.T) {
	srv, err := newServer(Options{Workers: 1, MaxInflightPerClient: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var inline []string
	for i := 0; i < 3; i++ {
		b, err := json.Marshal(tinySpec(i))
		if err != nil {
			t.Fatal(err)
		}
		inline = append(inline, string(b))
	}
	body := `{"configs":["baseline"],"inlineSpecs":[` + strings.Join(inline, ",") + `]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(apiKeyHeader, "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3-cell sweep under quota 2: %d, want 429", resp.StatusCode)
	}
	if st := srv.Stats(); len(st.Jobs) != 0 {
		t.Fatalf("rejected sweep leaked jobs: %v", st.Jobs)
	}
}
