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
	"testing"
	"time"

	"gpumembw/internal/api"
)

// quietCluster is a coordinator over idle workers (submitted cells stay
// queued, so no read is answered from the terminal cache) whose prober
// effectively never fires: every health change in these tests comes from
// the request path.
func quietCluster(t *testing.T, n int, logger *slog.Logger) (*Coordinator, []*httptest.Server) {
	t.Helper()
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < n; i++ {
		srv := newIdleWorker(t, Options{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
		})
		servers = append(servers, ts)
		addrs = append(addrs, ts.URL)
	}
	co, err := NewCoordinator(CoordinatorOptions{Workers: addrs, ProbeInterval: time.Hour, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) }) //nolint:errcheck // test teardown
	return co, servers
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestCellVerbsShareOneFailoverRule drives every per-cell route at a
// tracked cell whose worker stopped listening. All of them take the
// worker out of placement; the verbs that belong to the lost run
// (profile, trace, cancel) answer the same 503 envelope, and only the
// read of the job itself re-places the cell and answers from the live
// worker.
func TestCellVerbsShareOneFailoverRule(t *testing.T) {
	for _, tc := range []struct {
		name, method, suffix string
		replaces             bool
	}{
		{"GET job", http.MethodGet, "", true},
		{"profile", http.MethodGet, "/profile", false},
		{"trace", http.MethodGet, "/trace", false},
		{"DELETE", http.MethodDelete, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, servers := quietCluster(t, 2, nil)
			h := co.Handler()
			rec := serve(h, http.MethodPost, "/v1/jobs", `{"config":"baseline","bench":"`+testBench+`"}`)
			var job api.Job
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
				t.Fatalf("submit: %d %s", rec.Code, rec.Body)
			}
			placement := func() string {
				co.mu.Lock()
				defer co.mu.Unlock()
				return co.jobs[job.ID].worker
			}
			dead := placement()
			for _, ts := range servers {
				if ts.URL == dead {
					ts.Close()
				}
			}

			rec = serve(h, tc.method, "/v1/jobs/"+job.ID+tc.suffix, "")
			if tc.replaces {
				var got api.Job
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil || got.ID != job.ID {
					t.Fatalf("status %d body %s, want the job from the live worker", rec.Code, rec.Body)
				}
				if placement() == dead {
					t.Fatal("the read answered but the cell is still placed on the dead worker")
				}
			} else {
				var env api.Error
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("status %d body %s: not an error envelope", rec.Code, rec.Body)
				}
				if rec.Code != http.StatusServiceUnavailable || env.Code != api.CodeUnavailable ||
					!strings.Contains(env.Detail, "worker "+dead+" unreachable") {
					t.Fatalf("status %d envelope %+v, want 503 worker-unreachable", rec.Code, env)
				}
			}
			for _, w := range co.clusterStats().Workers {
				if w.Addr == dead && w.Healthy {
					t.Fatal("dead worker still marked healthy")
				}
			}
			// The loss also moves the cell in the background; let that
			// finish before the cluster is torn down.
			for deadline := time.Now().Add(10 * time.Second); placement() == dead; {
				if time.Now().After(deadline) {
					t.Fatal("cell never moved off the dead worker")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
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
