package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// newIdleServer boots a Server whose worker pool is never started, so
// submitted jobs stay queued forever — the deterministic substrate for
// timeout, drain and capacity tests.
func newIdleServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestLongPollReturnsOnTerminal pins the headline property: a ?wait=
// GET parked on a running job returns the moment the job finishes, not
// at the wait deadline.
func TestLongPollReturnsOnTerminal(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	j, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var got api.Job
	resp := getJSON(t, c.BaseURL()+"/v1/jobs/"+j.ID+"?wait=30s", &got)
	elapsed := time.Since(start)
	if resp.Header.Get(longPollHeader) == "" {
		t.Fatalf("missing %s capability header", longPollHeader)
	}
	if !got.State.Terminal() {
		t.Fatalf("state = %s after wait, want terminal", got.State)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("long-poll took %s — parked to the deadline instead of waking on completion", elapsed)
	}
	_ = srv
}

// TestLongPollTimeoutReturnsCurrentState pins the other edge: when the
// job stays non-terminal past the deadline, the GET returns its live
// (non-terminal) snapshot instead of erroring or hanging.
func TestLongPollTimeoutReturnsCurrentState(t *testing.T) {
	_, ts := newIdleServer(t, Options{Workers: 1})
	c := client.New(ts.URL)
	j, err := c.Submit(context.Background(), client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var got api.Job
	getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=200ms", &got)
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("wait=200ms returned after %s", elapsed)
	}
	if got.State != api.JobQueued {
		t.Fatalf("state = %s, want queued (workers never started)", got.State)
	}
}

// TestLongPollWakesOnDrain pins graceful shutdown behavior for every
// long-polled resource: a ?wait= GET parked on a job, a sweep or an
// exploration returns promptly once Shutdown starts instead of holding
// its connection open through the shutdown window. Each resource sits at
// a coordinator over an idle worker, where its cells stay parked — an
// exploration included, whose probes a daemon would simulate at once.
func TestLongPollWakesOnDrain(t *testing.T) {
	post := func(t *testing.T, h http.Handler, path string, body, out any) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(h, http.MethodPost, path, string(data))
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil || rec.Code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for _, tc := range []struct {
		name   string
		submit func(t *testing.T, h http.Handler) string // the resource's GET path
	}{
		{"job", func(t *testing.T, h http.Handler) string {
			return "/v1/jobs/" + submitCell(t, h, client.JobSpec{Config: "baseline", Bench: testBench}).ID
		}},
		{"sweep", func(t *testing.T, h http.Handler) string {
			var sw api.SweepResponse
			post(t, h, "/v1/sweeps", client.SweepRequest{Configs: []string{"baseline", "L2-4x"}, Benches: []string{testBench}}, &sw)
			return "/v1/sweeps/" + sw.ID
		}},
		{"exploration", func(t *testing.T, h http.Handler) string {
			var ex api.Exploration
			post(t, h, "/v1/explore", exploreReq(), &ex)
			return "/v1/explorations/" + ex.ID
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, _, _, requests := countedCluster(t, 1, Options{}, Options{})
			h := co.Handler()
			path := tc.submit(t, h)
			waitFor(t, "a run to park on the worker", func() bool { return requests.Load() >= 2 })

			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- serve(h, http.MethodGet, path+"?wait=30s", "") }()
			time.Sleep(100 * time.Millisecond) // let the waiter park

			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := co.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			select {
			case rec := <-done:
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s after drain: %d %s", path, rec.Code, rec.Body)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("waiter on %s still parked %s after Shutdown started", path, time.Since(start))
			}
		})
	}
}

// TestLongPollRejectsBadWait pins the validation envelope on the wait
// parameter itself.
func TestLongPollRejectsBadWait(t *testing.T) {
	_, ts := newIdleServer(t, Options{Workers: 1})
	for _, wait := range []string{"bogus", "-5s"} {
		var e api.Error
		resp := getJSON(t, ts.URL+"/v1/jobs/nope?wait="+wait, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: status %d, want 400", wait, resp.StatusCode)
		}
		if e.Code != api.CodeInvalidArgument {
			t.Fatalf("wait=%s: code %q, want %q", wait, e.Code, api.CodeInvalidArgument)
		}
	}
}

// countingTransport counts job-poll GETs issued by the client under
// test, the request-count assertion the long-poll redesign is gated on.
type countingTransport struct {
	base  http.RoundTripper
	polls atomic.Int64
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/jobs/") && r.URL.Path[:len("/v1/jobs/")] == "/v1/jobs/" {
		ct.polls.Add(1)
	}
	return ct.base.RoundTrip(r)
}

// TestWaitIssuesNoIntervalPolls pins the contract from the API
// redesign: against a long-poll-capable daemon, client.Wait parks on
// ?wait= rounds instead of re-polling on a fixed interval. With a
// ~150ms simulation and a 10ms poll interval, a ticker-based Wait would
// issue a dozen GETs; the long-poll Wait issues at most two (the
// terminal state can land one round boundary late).
func TestWaitIssuesNoIntervalPolls(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	j, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: testBench})
	if err != nil {
		t.Fatal(err)
	}

	ct := &countingTransport{base: http.DefaultTransport}
	counted := client.New(c.BaseURL(), client.WithHTTPClient(&http.Client{Transport: ct}))
	got, err := counted.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != client.JobDone {
		t.Fatalf("state = %s, want done", got.State)
	}
	if n := ct.polls.Load(); n > 2 {
		t.Fatalf("Wait issued %d job GETs against a long-poll daemon, want <= 2 (interval polling leaked back in)", n)
	}
}

// legacyProxy emulates a pre-long-poll daemon: it strips the ?wait=
// parameter before the daemon sees it and removes the capability header
// from the response, so every round the client sends comes back at once.
func legacyProxy(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("wait")
		r.URL.RawQuery = q.Encode()
		next.ServeHTTP(&headerDroppingWriter{ResponseWriter: w, drop: longPollHeader}, r)
	})
}

type headerDroppingWriter struct {
	http.ResponseWriter
	drop string
}

func (hw *headerDroppingWriter) WriteHeader(code int) {
	hw.ResponseWriter.Header().Del(hw.drop)
	hw.ResponseWriter.WriteHeader(code)
}

// TestWaitFallsBackWithoutCapabilityHeader pins the downgrade path:
// against a daemon (or intermediary) that ignores ?wait=, Wait still
// completes — each round ends early, so the jittered pause between rounds
// makes it interval polling.
func TestWaitFallsBackWithoutCapabilityHeader(t *testing.T) {
	srv, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(legacyProxy(srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // test teardown
	})

	c := client.New(ts.URL)
	got, err := c.Run(context.Background(), client.JobSpec{Config: "baseline", Bench: testBench}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != client.JobDone {
		t.Fatalf("state = %s, want done", got.State)
	}
}
