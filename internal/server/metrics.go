package server

import (
	"net/http"
	"strconv"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/metrics"
)

// jobStates is the fixed exposition order for the per-state job gauge;
// all states are always exported (zero-valued when empty) so dashboards
// never see series appear and disappear.
var jobStates = []api.JobState{api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled}

// initMetrics builds the /metrics registry. Gauges read live server
// state through closures at scrape time; counters are the same values
// /v1/stats reports, so the two endpoints reconcile exactly whenever the
// server is quiescent.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.registry = r

	s.httpRequests = r.CounterVec("gpusimd_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "endpoint", "code")
	s.httpLatency = r.HistogramVec("gpusimd_http_request_seconds",
		"HTTP request latency in seconds, by route pattern.", []string{"endpoint"}, metrics.DefBuckets)
	s.rateLimited = r.Counter("gpusimd_rate_limited_total",
		"Requests rejected with 429 by the per-client rate limit.")
	s.quotaDenied = r.Counter("gpusimd_quota_denied_total",
		"Job enqueues rejected with 429 by the per-client inflight quota.")
	s.traceSpans = r.Counter("gpusimd_trace_spans_total",
		"Job lifecycle spans recorded (queued, running, terminal markers).")
	s.stageLatency = r.HistogramVec("gpusimd_job_stage_seconds",
		"Job stage wall-clock duration in seconds, by lifecycle stage.", []string{"stage"}, metrics.DefBuckets)

	r.GaugeFunc("gpusimd_inflight_sims", "Workers currently inside a simulation (a coordinator's: its remote runs).",
		func() float64 { return float64(s.running.Load()) })
	r.GaugeFunc("gpusimd_queue_depth", "Jobs the bounded queue holds (a coordinator's: queued or running).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queueDepthLocked())
		})
	r.GaugeFunc("gpusimd_queue_capacity", "Bounded queue capacity.",
		func() float64 { return float64(s.maxQueue) })
	r.GaugeVecFunc("gpusimd_jobs", "Job table size by state.", []string{"state"},
		func() []metrics.Sample {
			s.mu.Lock()
			byState := make(map[api.JobState]int, len(jobStates))
			for _, j := range s.jobs {
				byState[j.State]++
			}
			s.mu.Unlock()
			samples := make([]metrics.Sample, 0, len(jobStates))
			for _, st := range jobStates {
				samples = append(samples, metrics.Sample{Labels: []string{string(st)}, Value: float64(byState[st])})
			}
			return samples
		})

	r.GaugeFunc("gpusimd_workers", "Simulation worker-pool size.",
		func() float64 { return float64(s.workers) })
	s.sched.RegisterMetrics(r, "gpusimd_scheduler_")
	if s.fleet != nil {
		// The cluster series read the snapshot GET /v1/cluster serves.
		r.GaugeFunc("gpusimd_cluster_workers", "Workers configured on the coordinator.",
			func() float64 { return float64(len(s.fleet.workers)) })
		r.GaugeFunc("gpusimd_cluster_workers_healthy", "Workers currently healthy and not draining.",
			func() float64 { return float64(s.clusterStats().Healthy) })
		r.GaugeFunc("gpusimd_cluster_tracked_jobs", "Jobs in the coordinator's table.",
			func() float64 { return float64(s.clusterStats().TrackedJobs) })
		r.CounterFunc("gpusimd_cluster_reassigned_jobs_total",
			"Runs moved to a new worker after theirs became unhealthy or was drained.",
			func() float64 { return float64(s.clusterStats().ReassignedJobs) })
	}

	if s.cache != nil {
		r.GaugeFunc("gpusimd_disk_cache_entries", "Entries persisted in the disk cache.",
			func() float64 { return float64(s.cache.Stats().Entries) })
		r.GaugeFunc("gpusimd_disk_cache_bytes", "Accounted payload bytes in the disk cache.",
			func() float64 { return float64(s.cache.Stats().Bytes) })
		r.GaugeFunc("gpusimd_disk_cache_max_bytes", "Disk cache size bound; 0 means unbounded.",
			func() float64 { return float64(s.cache.Stats().MaxBytes) })
		r.CounterFunc("gpusimd_disk_cache_evictions_total", "Disk cache entries evicted by the size bound.",
			func() float64 { return float64(s.cache.Stats().Evictions) })
	}
}

// handleHealth and handleMetrics serve liveness and the Prometheus text
// exposition.
func handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
}

func handleMetrics(reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // the response is already committed
	}
}

// statusRecorder captures the status code a handler committed so the
// instrumentation middleware can label its request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route table with per-endpoint request counting
// and latency observation.
// The endpoint label is the ServeMux pattern that matched (r.Pattern is
// populated during routing), so /v1/jobs/{id} stays one series no
// matter how many job IDs exist.
func instrument(next http.Handler, requests *metrics.CounterVec, latency *metrics.HistogramVec) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		requests.With(endpoint, strconv.Itoa(rec.code)).Inc()
		latency.With(endpoint).Observe(time.Since(start).Seconds())
	})
}

// limited gates a mutating handler behind the per-client rate limiter
// (no-op when rate limiting is disabled). Read-side polling endpoints
// stay unlimited so a throttled client can still watch its jobs finish.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if ok, retry := s.limiter.allow(clientKey(r), time.Now()); !ok {
			s.rateLimited.Inc()
			writeError(w, &httpError{
				status:     http.StatusTooManyRequests,
				retryAfter: retry,
				msg:        "server: rate limit exceeded, retry later",
			})
			return
		}
		h(w, r)
	}
}
