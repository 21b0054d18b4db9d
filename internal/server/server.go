// Package server implements gpusimd: an HTTP daemon that wraps the
// experiment engine (exp.Scheduler) behind an async job API, and the
// coordinator that fronts a fleet of such daemons with the same API.
//
// Jobs are (configuration, workload) cells — preset names or fully
// inline config/spec values — content-addressed so duplicate submissions
// — within a sweep, across clients, or across the daemon's lifetime —
// share one simulation. A bounded queue feeds a
// worker pool; the scheduler's memo cache serves repeats in-memory, and an
// optional disk cache (Options.CacheDir) persists results across
// restarts. Queued jobs can be canceled; Shutdown drains in-flight cells.
//
// Jobs, sweeps and explorations share one table, one lock, one long-poll
// wake channel (longPoll serves every ?wait= GET) and one WaitGroup; one
// lifetime context, canceled first thing in Shutdown, aborts exploration
// drivers and a coordinator's prober. A new job, sweep or exploration
// while draining gets 503.
//
// A coordinator (NewCoordinator) is the same Server whose scheduler's last
// tier is remote: admission, the job table, long-polls, sweeps, listing,
// traces, cancels, explorations, the memo and the disk cache are the
// daemon's own, and a cell that misses both runs on the worker its ID
// rendezvous-hashes to, reached through the client package.
//
// Retention: finished jobs and memoized metrics are kept for the daemon's
// lifetime — cross-request reuse is the point of the service — so memory
// grows with the number of distinct cells submitted. Only the queue is
// bounded. Evicting cold cells (TTL, LRU, delete-finished) is the next
// scaling step and rides on the same content-addressed IDs.
package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/metrics"
	"gpumembw/internal/obsv"
	"gpumembw/internal/trace"
)

// DefaultMaxQueue is the bounded-queue capacity when Options.MaxQueue is 0.
const DefaultMaxQueue = 1024

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size; 0 selects GOMAXPROCS,
	// negative is an error.
	Workers int
	// MaxQueue bounds the job queue; 0 selects DefaultMaxQueue, negative
	// is an error. Submissions beyond the bound get 503.
	MaxQueue int
	// CacheDir, when non-empty, persists simulation results as JSON files
	// so a restarted daemon serves previously simulated cells without
	// re-simulating, and a restarted coordinator without asking a worker.
	// A directory on a shared volume gives a whole cluster one cache
	// namespace.
	CacheDir string
	// CacheMaxBytes bounds the disk cache's total payload size; 0 means
	// unbounded, negative is an error. When the bound is exceeded the
	// least-recently-used entries are evicted (down to a floor of one
	// entry). Eviction never changes results, only re-simulation cost.
	CacheMaxBytes int64
	// RateLimit, when > 0, grants each client (X-API-Key header, else
	// remote host) that many mutating requests per second; excess gets
	// 429 with a Retry-After header. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket burst for RateLimit; 0 selects
	// max(1, ceil(RateLimit)).
	RateBurst int
	// MaxInflightPerClient, when > 0, bounds how many queued+running
	// jobs one client may own at once; excess submissions get 429.
	// 0 disables the quota.
	MaxInflightPerClient int
	// Progress, when non-nil, receives one line per completed simulation.
	Progress io.Writer
	// Logger, when non-nil, receives structured lifecycle events (job
	// transitions with trace IDs, cache-tier attribution) and disk-cache
	// I/O warnings. nil disables structured logging (tests); cmd/gpusimd
	// always wires one.
	Logger *slog.Logger
}

// job is the server-side job record. Mutable fields are guarded by
// Server.mu; cancel aborts a queued job's context.
//
// gen counts enqueues: a worker captures it at pop and applies its
// result only if the job has not since been canceled and re-enqueued
// (in which case a newer run owns the record). owner/charged track the
// per-client inflight quota — the client who enqueued pays until the
// job reaches a terminal state, exactly once.
type job struct {
	api.Job
	cell    exp.Job // resolved once, at submission
	ctx     context.Context
	cancel  context.CancelFunc
	gen     uint64
	owner   string
	charged bool

	// spans is the lifecycle timeline served by GET /v1/jobs/{id}/trace;
	// profile is the bottleneck profile of a Profile=true run, served by
	// GET /v1/jobs/{id}/profile once the job is done.
	spans   []api.Span
	profile *obsv.Profile
}

// Server owns the job table, the worker pool and the scheduler its workers
// run cells on — memo, then the optional disk cache, then the last tier:
// simulation at a daemon, a remote run at a coordinator. Create one with
// New or NewCoordinator; serve its Handler; stop it with Shutdown.
type Server struct {
	opts       Options
	workers    int
	maxQueue   int
	sched      *exp.Scheduler
	fleet      *fleet // nil at a daemon
	cache      *DirCache
	limiter    *limiter
	exploreDir string // exploration journal; "" without a cache dir

	// ctx is the server's lifetime, canceled first thing in Shutdown: it
	// aborts exploration drivers and stops a coordinator's prober.
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	cond         *sync.Cond // signaled on enqueue and on drain
	jobs         map[string]*job
	pending      []*job                 // FIFO of queued jobs; state queued <=> in pending
	inflight     map[string]int         // client key -> queued+running jobs it owns
	sweeps       map[string]*sweepRec   // sweep resources by content-addressed ID
	explorations map[string]*exploreRec // exploration resources by content-addressed ID
	waitCh       chan struct{}          // closed+replaced on every terminal transition, exploration round and on drain
	logq         []func()               // log lines of transitions made under mu; unlock emits them
	draining     bool

	running atomic.Int64 // workers inside the run step; changed under mu, read without it by /metrics

	registry     *metrics.Registry
	httpRequests *metrics.CounterVec
	httpLatency  *metrics.HistogramVec
	rateLimited  *metrics.Counter
	quotaDenied  *metrics.Counter
	traceSpans   *metrics.Counter
	stageLatency *metrics.HistogramVec

	log *slog.Logger

	wg sync.WaitGroup // workers, exploration drivers, a coordinator's prober
}

// New builds a daemon and starts its worker pool.
func New(opts Options) (*Server, error) {
	s, err := newServer(opts, nil)
	if err != nil {
		return nil, err
	}
	s.startWorkers()
	return s, nil
}

// newServer builds a Server without starting workers (tests use this to
// exercise the queue deterministically): a daemon when f is nil, else a
// coordinator whose scheduler's last tier is f.
func newServer(opts Options, f *fleet) (*Server, error) {
	if err := exp.ValidateWorkers(opts.Workers); err != nil {
		return nil, err
	}
	if opts.MaxQueue < 0 {
		return nil, fmt.Errorf("server: invalid queue bound %d: must be >= 0 (0 selects %d)", opts.MaxQueue, DefaultMaxQueue)
	}
	if opts.RateLimit < 0 {
		return nil, fmt.Errorf("server: invalid rate limit %v: must be >= 0 (0 disables)", opts.RateLimit)
	}
	if opts.RateBurst < 0 {
		return nil, fmt.Errorf("server: invalid rate burst %d: must be >= 0", opts.RateBurst)
	}
	if opts.MaxInflightPerClient < 0 {
		return nil, fmt.Errorf("server: invalid per-client inflight bound %d: must be >= 0 (0 disables)", opts.MaxInflightPerClient)
	}
	s := &Server{
		opts:         opts,
		workers:      cmp.Or(opts.Workers, runtime.GOMAXPROCS(0)),
		maxQueue:     cmp.Or(opts.MaxQueue, DefaultMaxQueue),
		fleet:        f,
		jobs:         make(map[string]*job),
		inflight:     make(map[string]int),
		sweeps:       make(map[string]*sweepRec),
		explorations: make(map[string]*exploreRec),
		waitCh:       make(chan struct{}),
		log:          opts.Logger,
	}
	if s.log == nil { // structured logging off
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	schedOpts := []exp.Option{exp.WithWorkers(opts.Workers)}
	if opts.Progress != nil {
		schedOpts = append(schedOpts, exp.WithProgress(opts.Progress))
	}
	switch {
	case opts.CacheDir != "":
		var err error
		if s.cache, err = NewDirCache(opts.CacheDir, opts.CacheMaxBytes, s.log); err != nil {
			return nil, err
		}
		schedOpts = append(schedOpts, exp.WithResultCache(s.cache))
		// Explorations journal their requests under the cache dir, so a
		// restarted server resumes every search from cached cells.
		s.exploreDir = filepath.Join(opts.CacheDir, "explore")
		if err := os.MkdirAll(s.exploreDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: explore journal dir: %w", err)
		}
	case opts.CacheMaxBytes != 0:
		return nil, errors.New("server: cache bound set without a cache dir")
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if f != nil {
		// A coordinator has no worker pool: each queued cell starts a worker
		// of its own (transitionLocked), and its cells run on the fleet.
		s.workers = 0
		f.ctx, f.log = s.ctx, s.log
		schedOpts = append(schedOpts, exp.WithLastTier(f.run))
	}
	s.sched = exp.NewScheduler(schedOpts...)
	if opts.RateLimit > 0 {
		s.limiter = newLimiter(opts.RateLimit, opts.RateBurst)
	}
	s.cond = sync.NewCond(&s.mu)
	s.initMetrics()
	s.resumeExplorations()
	return s, nil
}

func (s *Server) startWorkers() {
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
}

// worker pops queued jobs in FIFO order until drained — at a coordinator,
// until the queue is empty — and runs each on the scheduler. Cancellation
// of a queued job removes it from pending directly, so every popped job is
// live; cancellation of a running job flips its state under s.mu and
// aborts the run's context, and the worker discards its result for the job
// record on return. A simulation cannot be preempted, so the memo and disk
// caches still keep its result and a resubmission is nearly free; a remote
// run returns at once and is forgotten, so a resubmission runs again.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.draining && s.fleet == nil {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.transitionLocked(j, api.JobRunning)
		gen, profile := j.gen, j.Spec.Profile
		ctx := context.WithValue(j.ctx, remoteJobKey{}, remoteJob{owner: j.owner, traceID: j.TraceID,
			placed: func(worker string) {
				s.mu.Lock()
				defer s.mu.Unlock()
				if j.gen == gen && j.State == api.JobRunning {
					j.spanAttr("worker", worker)
				}
			}})
		s.running.Add(1) // under s.mu: a coordinator's queue bound counts it
		s.unlock()

		res, err := s.sched.RunJobEx(ctx, j.cell, profile)

		s.mu.Lock()
		s.running.Add(-1)
		// Only the run that owns the record reports: if the job was
		// canceled (and possibly re-enqueued) while we simulated, the
		// canceled state the client observed must stand everywhere —
		// GET /v1/jobs/{id} and /v1/stats alike.
		if j.gen == gen && j.State == api.JobRunning {
			j.Tier = res.Tier
			j.spanAttr("tier", res.Tier)
			if err != nil {
				j.Error = err.Error()
				j.spanAttr("error", j.Error)
				s.transitionLocked(j, api.JobFailed)
			} else {
				// The memo and disk caches may have simulated this cell under
				// different config/workload labels; the job answers with its own.
				m := res.Metrics
				m.Config = j.cell.Config.Label()
				m.Benchmark = j.cell.Workload.Label()
				j.Metrics = &m
				j.profile = res.Profile
				s.transitionLocked(j, api.JobDone)
			}
		}
		s.unlock()
	}
}

// transitionLocked moves j to state `to` — the only place a job changes
// state, so everything a state change records is recorded here, once,
// whoever asks (admission, the worker's pop and finish, cancel, drain):
//
//   - the open span (queued or running) closes and its duration is
//     observed in gpusimd_job_stage_seconds under the span's own name —
//     measured from the span's start, not SubmittedAt, which a re-enqueue
//     does not reset;
//   - a span named after the new state opens — for a terminal state a
//     zero-length marker, completing the queued → running → terminal
//     timeline — and gpusimd_trace_spans_total counts it;
//   - pending tracks the state: a job is in the FIFO exactly while queued
//     (and at a coordinator, entering it starts a worker for the job);
//   - StartedAt / FinishedAt are stamped on entering running / a terminal
//     state, and a terminal state additionally aborts the job's context,
//     refunds its owner's quota (so a terminal job never holds a charge)
//     and wakes the long-poll waiters;
//   - leaving queued logs one line, emitted once s.mu is released (unlock).
//
// Callers hold s.mu and have set whatever the new state reports (Tier,
// Error, Metrics, profile) beforehand.
func (s *Server) transitionLocked(j *job, to api.JobState) {
	now := time.Now()
	if n := len(j.spans); n > 0 && j.spans[n-1].End == nil {
		open := &j.spans[n-1]
		open.End = &now
		s.stageLatency.With(open.Name).Observe(now.Sub(open.Start).Seconds())
	}
	if j.State == api.JobQueued {
		if i := slices.Index(s.pending, j); i >= 0 {
			s.pending = slices.Delete(s.pending, i, i+1)
		}
	}
	j.State = to
	span := api.Span{Name: string(to), Start: now}
	level, attrs := slog.LevelInfo, []any{"job", j.ID, "trace", j.TraceID}
	if to.Terminal() {
		j.FinishedAt = &now
		span.End = &now
		j.cancel()
		s.releaseQuotaLocked(j)
		s.broadcastLocked()
	}
	switch to {
	case api.JobQueued:
		s.pending = append(s.pending, j)
		s.cond.Signal()
		if s.fleet != nil {
			// A coordinator's run is a request parked on a worker, not a
			// simulation: every cell gets one at once, and the workers'
			// own queues and pools bound the work.
			s.wg.Add(1)
			go s.worker()
		}
	case api.JobRunning:
		j.StartedAt = &now
		attrs = append(attrs, "config", j.cell.Config.Label(), "bench", j.cell.Workload.Label(), "profile", j.Spec.Profile)
	case api.JobDone:
		attrs = append(attrs, "tier", j.Tier, "cycles", j.Metrics.Cycles,
			"wallMs", now.Sub(*j.StartedAt).Milliseconds(), "profiled", j.profile != nil)
	case api.JobFailed:
		level = slog.LevelWarn
		attrs = append(attrs, "tier", j.Tier, "err", j.Error)
	}
	j.spans = append(j.spans, span)
	s.traceSpans.Add(1)
	if to != api.JobQueued {
		s.logq = append(s.logq, func() { s.log.Log(context.Background(), level, "job "+string(to), attrs...) })
	}
}

// unlock releases s.mu and then emits the lines the transitions made
// under it logged: the Logger is the embedder's code and may block on its
// sink, which must not stall the job table.
func (s *Server) unlock() {
	lines := s.logq
	s.logq = nil
	s.mu.Unlock()
	for _, emit := range lines {
		emit()
	}
}

// broadcastLocked wakes every long-poll waiter: the current wait channel
// is closed and replaced, so waiters re-check their condition. Called on
// every terminal job transition and on drain; callers hold s.mu.
func (s *Server) broadcastLocked() {
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

// httpError carries a status code out of the submit/resolve helpers;
// retryAfter, when set, becomes a Retry-After header on the response
// and the envelope's retryAfter field. code, when empty, defaults to
// api.CodeForStatus(status) at write time.
type httpError struct {
	status     int
	code       string
	retryAfter time.Duration
	msg        string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errDraining refuses a new job, sweep cell or exploration once Shutdown
// has begun.
var errDraining = &httpError{status: http.StatusServiceUnavailable, msg: "server: draining, not accepting new work"}

// resolveSpec turns a wire JobSpec into the resolved cell it names — the
// one place a submitted spec is validated, canonicalized and keyed; the
// result rides the job record from here to the scheduler and the disk
// cache. Every rejection is a 400 carrying validation detail; nothing a
// client sends can reach a panicking build path (the wire-decoder fuzz
// target leans on exactly this property).
func resolveSpec(spec api.JobSpec) (exp.Job, error) {
	// Shape errors name the wire fields; the rest is exp's resolution.
	configs := 0
	for _, set := range []bool{spec.Config != "", spec.InlineConfig != nil, spec.ConfigPatch != nil} {
		if set {
			configs++
		}
	}
	switch {
	case spec.Bench != "" && spec.InlineSpec != nil:
		return exp.Job{}, errBadRequest("spec: bench and inlineSpec are mutually exclusive")
	case spec.Bench == "" && spec.InlineSpec == nil:
		return exp.Job{}, errBadRequest("spec: one of bench or inlineSpec is required (known benchmarks: %v)", trace.Names())
	case configs > 1:
		return exp.Job{}, errBadRequest("spec: config, inlineConfig and configPatch are mutually exclusive")
	case configs == 0:
		return exp.Job{}, errBadRequest("spec: one of config, inlineConfig or configPatch is required (known configs: %v)", config.Names())
	}
	cell, err := exp.Job{
		Config:   exp.ConfigRef{Preset: spec.Config, Config: spec.InlineConfig, Patch: spec.ConfigPatch},
		Workload: exp.WorkloadRef{Bench: spec.Bench, Spec: spec.InlineSpec},
	}.Resolve()
	if err != nil {
		return cell, errBadRequest("spec: %v", err)
	}
	return cell, nil
}

// quotaErrLocked reports whether owner may take on `extra` more inflight
// jobs; callers hold s.mu.
func (s *Server) quotaErrLocked(owner string, extra int) error {
	if s.opts.MaxInflightPerClient <= 0 || extra == 0 {
		return nil
	}
	if have := s.inflight[owner]; have+extra > s.opts.MaxInflightPerClient {
		s.quotaDenied.Add(int64(extra))
		return &httpError{
			status:     http.StatusTooManyRequests,
			retryAfter: time.Second,
			msg: fmt.Sprintf("server: client has %d jobs in flight and asked for %d more, over the per-client bound %d; wait for jobs to finish",
				have, extra, s.opts.MaxInflightPerClient),
		}
	}
	return nil
}

// releaseQuotaLocked refunds j's owner exactly once, at the transition
// to a terminal state (done, failed, canceled). Callers hold s.mu.
func (s *Server) releaseQuotaLocked(j *job) {
	if !j.charged {
		return
	}
	j.charged = false
	if n := s.inflight[j.owner]; n <= 1 {
		delete(s.inflight, j.owner)
	} else {
		s.inflight[j.owner] = n - 1
	}
}

// submit admits one resolved cell — admitLocked's one-cell case. It
// returns the job and true if this call created or re-enqueued it.
func (s *Server) submit(spec api.JobSpec, cell exp.Job, owner, traceID string) (*job, bool, error) {
	s.mu.Lock()
	defer s.unlock()
	jobs, enqueued, err := s.admitLocked([]resolvedCell{{id: cell.CellID(), spec: spec, cell: cell}}, owner, traceID)
	if err != nil {
		return nil, false, err
	}
	return jobs[0], enqueued[0], nil
}

// admitLocked is the one admission path, for one cell or a whole sweep:
// it deduplicates cells (unique by id) against the job table and enqueues
// the ones that need a run, all or none. Capacity — the client's inflight
// quota and the queue's free slots — is checked for every such cell before
// any is touched, so a sweep never leaves its client owning half its job
// IDs. It returns each cell's job and whether this call enqueued it.
// owner is the submitting client's quota identity; traceID is the
// request's trace ID, adopted by jobs this call creates or revives.
// Callers hold s.mu.
//
// A cell needs a run when it is new, when its job was canceled, or when
// its job is done but unprofiled and the cell now asks for a profile: the
// metrics are memoized, so the re-run only adds the profile. Everything
// else — including failed jobs: the simulator is deterministic and the
// scheduler memoizes errors, so a retry would reproduce the failure — is
// shared as-is.
func (s *Server) admitLocked(cells []resolvedCell, owner, traceID string) ([]*job, []bool, error) {
	run := make([]bool, len(cells))
	needed := 0
	for i, c := range cells {
		j := s.jobs[c.id]
		run[i] = j == nil || j.State == api.JobCanceled ||
			(c.spec.Profile && j.State == api.JobDone && j.profile == nil)
		if run[i] {
			needed++
		}
	}
	if err := s.quotaErrLocked(owner, needed); err != nil {
		return nil, nil, err
	}
	if needed > 0 && s.draining {
		return nil, nil, errDraining
	}
	if free := s.maxQueue - s.queueDepthLocked(); needed > free {
		msg := fmt.Sprintf("server: sweep needs %d queue slots, %d free (queue bound %d)", needed, free, s.maxQueue)
		if len(cells) == 1 {
			msg = fmt.Sprintf("server: job queue full (%d entries)", s.maxQueue)
		}
		return nil, nil, &httpError{status: http.StatusServiceUnavailable, msg: msg}
	}

	jobs := make([]*job, len(cells))
	for i, c := range cells {
		j := s.jobs[c.id]
		if j == nil {
			j = &job{Job: api.Job{ID: c.id, Spec: c.spec, SubmittedAt: time.Now(), TraceID: traceID}, cell: c.cell}
			s.jobs[c.id] = j
		}
		jobs[i] = j
		// A still-queued job is upgraded in place: the worker reads the
		// flag at pop. (A running unprofiled job can be resubmitted once
		// it's done.)
		if c.spec.Profile && (run[i] || j.State == api.JobQueued) {
			j.Spec.Profile = true
		}
		if !run[i] {
			continue
		}
		if j.TraceID == "" {
			j.TraceID = traceID
		}
		// The client who enqueued pays until the job reaches a terminal state.
		j.owner, j.charged = owner, true
		s.inflight[owner]++
		j.Error, j.Metrics, j.Tier = "", nil, ""
		j.StartedAt, j.FinishedAt = nil, nil
		j.ctx, j.cancel = context.WithCancel(context.Background())
		j.gen++
		s.transitionLocked(j, api.JobQueued)
	}
	return jobs, run, nil
}

// queueDepthLocked is what the queue bound counts: the queued jobs, and at
// a coordinator — whose every run is a cell waiting on a worker — its runs
// as well. Callers hold s.mu.
func (s *Server) queueDepthLocked() int {
	if s.fleet != nil {
		return len(s.pending) + int(s.running.Load())
	}
	return len(s.pending)
}

// resolvedCell is one validated sweep cell (unique by id).
type resolvedCell struct {
	id   string
	spec api.JobSpec
	cell exp.Job
}

// sweepRec is the server-side sweep resource: the unique cells a POST
// /v1/sweeps request named (request order), plus the grid of an axis-form
// sweep (nil for a cell list), which its merged speedup table is read
// from. Like jobs, sweep records are retained for the daemon's lifetime.
type sweepRec struct {
	id          string
	submittedAt time.Time
	requested   int
	deduped     int
	jobIDs      []string // unique cells, request order
	grid        *exp.Grid
}

// sweepID content-addresses a sweep: the hash of its sorted unique cell
// IDs, so the same cell set — however spelled or resubmitted, at any
// entry point — is the same resource.
func sweepID(cells []resolvedCell) string {
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.id
	}
	sort.Strings(ids)
	sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
	return "sw-" + hex.EncodeToString(sum[:8])
}

// submitSweep admits a deduplicated sweep atomically — it either submits
// whole or rejects whole (admitLocked) — and registers (or re-finds) it as
// a sweep resource addressable at GET /v1/sweeps/{id}. owner is the
// submitting client's quota identity.
func (s *Server) submitSweep(ex *sweepExpansion, owner, traceID string) (api.SweepResponse, error) {
	s.mu.Lock()
	defer s.unlock()
	admitted, _, err := s.admitLocked(ex.cells, owner, traceID)
	if err != nil {
		return api.SweepResponse{}, err
	}
	jobs := make([]api.Job, len(admitted))
	for i, j := range admitted {
		jobs[i] = j.Job
	}
	id := sweepID(ex.cells)
	if rec, known := s.sweeps[id]; !known {
		rec = &sweepRec{
			id:          id,
			submittedAt: time.Now(),
			requested:   ex.requested,
			deduped:     ex.requested - len(ex.cells),
			grid:        ex.grid,
		}
		for _, c := range ex.cells {
			rec.jobIDs = append(rec.jobIDs, c.id)
		}
		s.sweeps[id] = rec
	} else if rec.grid == nil {
		// A cell-list twin registered first; adopt the grid so the
		// resource can still serve speedups.
		rec.grid = ex.grid
	}
	return api.SweepResponse{
		ID:        id,
		Requested: ex.requested,
		Deduped:   ex.requested - len(jobs),
		Jobs:      jobs,
	}, nil
}

// view assembles the sweep's resource representation from its jobs in
// the job table. Callers hold s.mu.
func (rec *sweepRec) view(jobs map[string]*job) api.Sweep {
	sw := api.Sweep{
		ID:          rec.id,
		Requested:   rec.requested,
		Deduped:     rec.deduped,
		Counts:      make(map[api.JobState]int),
		Jobs:        make([]api.Job, 0, len(rec.jobIDs)),
		SubmittedAt: rec.submittedAt,
	}
	terminal := 0
	for _, jid := range rec.jobIDs {
		j := jobs[jid].Job
		sw.Counts[j.State]++
		if j.State.Terminal() {
			terminal++
		}
		sw.Jobs = append(sw.Jobs, j)
	}
	switch {
	case terminal < len(rec.jobIDs):
		sw.State = api.SweepRunning
	case sw.Counts[api.JobFailed]+sw.Counts[api.JobCanceled] > 0:
		sw.State = api.SweepFailed
	default:
		sw.State = api.SweepDone
	}
	if sw.State == api.SweepDone && rec.grid != nil {
		// The grid read from the job table: each cell's speedup and each
		// column's area against the first configuration column, exactly
		// what exp.Scheduler.Sweep answers for the same axes. A stored grid
		// resolved and every cell is done, so the read cannot fail.
		res, _ := rec.grid.Read(func(cell exp.Job) (core.Metrics, error) { return *jobs[cell.CellID()].Metrics, nil })
		sw.Speedups = &api.SweepSpeedups{Configs: res.Configs, Workloads: res.Workloads, Cells: res.Speedups(0)}
		for _, est := range rec.grid.Areas() {
			sw.Speedups.AreaMM2 = append(sw.Speedups.AreaMM2, est.TotalMM2)
			sw.Speedups.OverheadFrac = append(sw.Speedups.OverheadFrac, est.OverheadFrac)
		}
	}
	return sw
}

// cancelJob implements DELETE /v1/jobs/{id}. The state machine is pinned
// by TestCancelStateMachine:
//
//	queued   -> canceled, 200; the queue slot frees immediately and the
//	            cell never simulates.
//	running  -> canceled, 200; the simulation is not preemptible, so the
//	            worker finishes the cell (its result still lands in the
//	            memo/disk caches) but the job record stays canceled — the
//	            same state in GET /v1/jobs/{id} and in /v1/stats.
//	canceled -> 200, idempotent.
//	done     -> 409; completed work is immutable.
//	failed   -> 409.
//	unknown  -> 404.
func (s *Server) cancelJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown job %q", id)}
	}
	switch j.State {
	case api.JobQueued, api.JobRunning:
		s.transitionLocked(j, api.JobCanceled)
		return j, nil
	case api.JobCanceled:
		return j, nil
	default:
		return nil, &httpError{status: http.StatusConflict, msg: fmt.Sprintf("server: job %q is %s, only queued or running jobs can be canceled", id, j.State)}
	}
}

// snapshot copies a job's API view under the lock.
func (s *Server) snapshot(j *job) api.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.Job
}

// Stats assembles the GET /v1/stats payload. Every counter here is also
// exported on /metrics from the same underlying source, so the two views
// reconcile exactly at quiescence (the torture test's closing assertion).
func (s *Server) Stats() api.Stats {
	s.mu.Lock()
	byState := make(map[api.JobState]int)
	for _, j := range s.jobs {
		byState[j.State]++
	}
	depth := s.queueDepthLocked()
	capacity := s.maxQueue
	s.mu.Unlock()

	st := api.Stats{
		Workers:     s.workers,
		QueueDepth:  depth,
		QueueCap:    capacity,
		Jobs:        byState,
		Scheduler:   s.sched.Stats(),
		RateLimited: s.rateLimited.Value(),
		QuotaDenied: s.quotaDenied.Value(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheDir = s.opts.CacheDir
		st.DiskCacheEntries = cs.Entries
		st.DiskCacheBytes = cs.Bytes
		st.DiskCacheMaxBytes = cs.MaxBytes
		st.DiskCacheEvictions = cs.Evictions
	}
	return st
}

// longPoll is the one long-poll loop, behind every ?wait= GET. view looks
// the resource up under s.mu and reports whether it is terminal, or an
// error when it is unknown. longPoll returns the latest view once it is
// terminal or unknown, the server is draining, d elapses, or ctx is done —
// at once, arming no timer, when d <= 0, which is a GET without ?wait=.
// Every terminal transition, exploration round and drain closes s.waitCh,
// so a waiter re-checks exactly when its resource may have changed.
func longPoll[T any](s *Server, ctx context.Context, d time.Duration, view func() (T, bool, error)) (T, error) {
	deadline := time.Now().Add(d)
	for {
		s.mu.Lock()
		v, terminal, err := view()
		wake, draining := s.waitCh, s.draining
		s.mu.Unlock()
		left := time.Until(deadline)
		if terminal || err != nil || draining || left <= 0 {
			return v, err
		}
		select {
		case <-wake:
		case <-time.After(left):
		case <-ctx.Done():
			return v, nil
		}
	}
}

// Shutdown stops accepting submissions, cancels still-queued jobs, aborts
// exploration drivers (their journals survive for resume), and waits
// (bounded by ctx) for in-flight simulations to drain. A coordinator has
// none to drain — its running jobs are runs parked on workers — so it
// stops its prober and cancels those too, without forwarding the cancel:
// the workers' copies of the jobs, which other entry points may share,
// run on.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel() // first, so the fleet sees shutdown before any job's cancel
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.State == api.JobQueued || (s.fleet != nil && j.State == api.JobRunning) {
			s.transitionLocked(j, api.JobCanceled)
		}
	}
	s.cond.Broadcast()
	s.broadcastLocked() // long-poll waiters return promptly during drain
	s.unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown deadline: %w", ctx.Err())
	}
}
