package server

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/exp"
)

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// Workers are the gpusimd worker base URLs the coordinator runs cells
	// on, e.g. "http://127.0.0.1:8373". At least one is required; a bare
	// host:port gets the http scheme prefixed.
	Workers []string
	// ProbeInterval is the /healthz probe period; 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request and one forwarded cancel; 0
	// selects 2s.
	ProbeTimeout time.Duration
	// ProbeFails is how many consecutive probe failures mark a worker
	// unhealthy (its runs move to healthy peers); 0 selects 2.
	ProbeFails int
	// Options is the entry point's own admission — queue bound, rate
	// limit, per-client quota — its disk cache and its Logger. A
	// coordinator simulates nothing, so Workers must be zero.
	Options Options
}

// exploreIdentity is the client identity a coordinator presents to
// workers for exploration probe cells, which belong to no client, so
// worker-side rate limits and quotas see the fleet's search traffic under
// one name.
const exploreIdentity = "gpusimd-explore"

// remoteJob is what a remote run needs of the job it runs, carried on the
// run's context through the scheduler (remoteJobKey): the owner whose quota
// it spends on the worker, the job's trace ID, and placed, which names the
// worker on the job's running span. Exploration probes carry none.
type remoteJob struct {
	owner   string
	traceID string
	placed  func(worker string)
}

type remoteJobKey struct{}

// NewCoordinator builds a coordinator — a Server whose scheduler's last
// tier is remote — and starts its health prober. It admits, tracks, lists,
// traces and cancels jobs, sweeps and explorations exactly as a daemon
// does, from its own job table, and answers cells from its own memo and
// disk cache; only a cell that misses both runs elsewhere, on the worker
// its content-addressed ID rendezvous-hashes to, so the same cell lands on
// the same worker from any entry point with the same membership and
// memoizes there. Every queued cell gets a run of its own at once, so the
// workers' own queues and worker pools bound the work, as they do for a
// client talking to a worker directly. On top of the daemon's routes it
// serves GET /v1/cluster and POST /v1/cluster/drain, and GET /v1/stats
// adds the fleet's worker counts and scheduler counters to its own.
//
// Workers are probed periodically; after ProbeFails consecutive failures
// (or a transport error or a 503 on a run's own request) a worker leaves
// placement and the runs parked on it move to the remaining workers, until
// it answers probes again. A drain does the same handover administratively.
func NewCoordinator(opts CoordinatorOptions) (*Server, error) {
	switch {
	case len(opts.Workers) == 0:
		return nil, errors.New("server: coordinator needs at least one -worker address")
	case opts.Options.Workers != 0:
		return nil, errors.New("server: -j does not apply to a coordinator: its workers simulate")
	}
	f := &fleet{
		probeFails:   cmp.Or(opts.ProbeFails, 2),
		probeTimeout: cmp.Or(opts.ProbeTimeout, 2*time.Second),
		changed:      make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, addr := range opts.Workers {
		addr = workerURL(addr)
		if seen[addr] {
			return nil, fmt.Errorf("server: duplicate worker address %q", addr)
		}
		seen[addr] = true
		// Workers start healthy — optimistically routable — and the first
		// probes correct the record within ProbeFails*ProbeInterval.
		f.workers = append(f.workers, &coordWorker{
			WorkerStatus: api.WorkerStatus{Addr: addr, Healthy: true},
			runs:         make(map[*remoteRun]struct{}),
		})
	}
	s, err := newServer(opts.Options, f)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f.prober(cmp.Or(opts.ProbeInterval, time.Second))
	}()
	return s, nil
}

// fleet is a coordinator's worker membership — health, drain, and the
// runs parked on each worker — and the remote run that places cells on
// it. Placement is an operational concern only: the simulator is
// deterministic and cells are content-addressed, so which worker runs a
// cell, or runs it again after a move, can never change results.
type fleet struct {
	probeFails   int
	probeTimeout time.Duration
	workers      []*coordWorker // fixed at construction; their fields are guarded by mu

	// ctx and log are the server's (set by newServer). ctx is canceled
	// first thing in Shutdown: it ends the prober, and runs ended after it
	// forward no cancel.
	ctx context.Context
	log *slog.Logger

	mu         sync.Mutex
	changed    chan struct{} // closed+replaced when a worker may have become routable
	reassigned int64
}

// coordWorker is one worker's membership record, kept in the form GET
// /v1/cluster serves it (Jobs is filled in per snapshot), and the runs
// parked on it.
type coordWorker struct {
	api.WorkerStatus
	runs map[*remoteRun]struct{}
}

// remoteRun is one run's placement, guarded by fleet.mu: the worker it is
// parked on (nil while no worker is routable) and the cancel of its
// requests there, which whoever takes the worker out of placement calls
// after moving the run (evictLocked).
type remoteRun struct {
	cellID string
	on     *coordWorker
	cancel context.CancelFunc
}

// workerURL normalizes a worker address as configured or named in a
// drain request: no trailing slash, http scheme unless one is given.
func workerURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// forwardIdentity is the X-API-Key a coordinator presents to a worker for
// a run: the bare form of the owner's quota identity (clientKey), so a
// worker's rate limit and quota bind to the original client and not to
// the coordinator; exploration probes, which have no owner, go as
// exploreIdentity.
func forwardIdentity(owner string) string {
	_, id, _ := strings.Cut(owner, ":")
	return cmp.Or(id, exploreIdentity)
}

// run is a coordinator's last tier. The cell is placed on its rendezvous
// worker and run there by a client.Client that carries the job's owner
// identity and trace ID, read from ctx (remoteJob): submitted, long-polled
// to a terminal state, and its profile fetched when one was asked for; the
// result carries the worker's own tier. The run moves when its worker gives
// no answer, answers 503 (full or shutting down) or leaves placement; waits
// out any other refusal (429, or no profile yet for a job the worker
// finished unprofiled) for the worker's Retry-After, else a second; places
// the cell again at once when the worker reports it canceled; and forwards
// DELETE when ctx is canceled — unless the coordinator is shutting down,
// which leaves its workers' jobs alone. Apart from ctx ending, it fails
// only when a worker reports the cell itself failed — which every worker
// would: the simulator is deterministic.
func (f *fleet) run(ctx context.Context, cell exp.Job, profile bool) (exp.RunResult, error) {
	rj, _ := ctx.Value(remoteJobKey{}).(remoteJob)
	spec := api.JobSpec{
		Config: cell.Config.Preset, InlineConfig: cell.Config.Config, ConfigPatch: cell.Config.Patch,
		Bench: cell.Workload.Bench, InlineSpec: cell.Workload.Spec, Profile: profile,
	}
	// The worker's rate limit and quota bind to the job's owner, and one
	// X-Trace-Id follows a submission from the entry point to the worker's
	// copy of the job.
	hdr := []client.Option{client.WithHeader(apiKeyHeader, forwardIdentity(rj.owner))}
	if rj.traceID != "" {
		hdr = append(hdr, client.WithHeader(api.TraceHeader, rj.traceID))
	}
	rr := &remoteRun{cellID: cell.CellID()}
	defer f.release(rr)
	for {
		w, rctx, err := f.place(ctx, rr)
		if err != nil {
			return exp.RunResult{}, err
		}
		if rj.placed != nil {
			rj.placed(w.Addr)
		}
		c := client.New(w.Addr, hdr...)
		j, err := c.Run(rctx, spec, 0)
		p := &client.JobProfile{}
		if err == nil && j.State == api.JobDone && profile {
			p, err = c.Profile(rctx, j.ID)
		}
		var refused *client.APIError
		switch {
		case err == nil && j.State == api.JobFailed:
			return exp.RunResult{Tier: j.Tier}, errors.New(j.Error)
		case err == nil && j.State == api.JobDone && j.Metrics != nil && (p.Profile != nil || !profile):
			return exp.RunResult{Metrics: *j.Metrics, Profile: p.Profile, Tier: j.Tier}, nil
		case ctx.Err() != nil:
			if f.ctx.Err() == nil {
				cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), f.probeTimeout)
				c.Cancel(cctx, rr.cellID) //nolint:errcheck // best effort
				cancel()
			}
			return exp.RunResult{}, ctx.Err()
		case errors.As(err, &refused) && refused.StatusCode != http.StatusServiceUnavailable:
			select {
			case <-time.After(cmp.Or(refused.RetryAfter, time.Second)):
			case <-rctx.Done():
			}
		case err != nil:
			// A full or draining worker keeps answering its health probes, so
			// the run takes it out of placement itself; the probes readmit it.
			f.markWorkerFailed(w, err)
		default:
			// The worker canceled the job, or answered with something that
			// is not its result: the cell is placed again at once.
		}
	}
}

// ---- placement ----

// pickLocked rendezvous-hashes cellID over the routable workers (healthy,
// not draining): every entry point ranks workers by sha256(addr|cellID)
// and the highest score wins, so the same cell lands on the same worker
// from any coordinator with the same membership view — twin submissions
// memoize. nil means no worker is routable. Callers hold f.mu.
func (f *fleet) pickLocked(cellID string) *coordWorker {
	var best *coordWorker
	var bestScore [sha256.Size]byte
	for _, w := range f.workers {
		if !w.Healthy || w.Draining {
			continue
		}
		score := sha256.Sum256([]byte(w.Addr + "|" + cellID))
		if best == nil || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = w, score
		}
	}
	return best
}

// place parks rr on a worker — the one it is already on, else its
// rendezvous pick, waiting while no worker is routable — and returns that
// worker and the context of the run's requests there, which ends when the
// worker leaves placement or ctx ends.
func (f *fleet) place(ctx context.Context, rr *remoteRun) (*coordWorker, context.Context, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f.mu.Lock()
		if rr.on == nil {
			f.moveLocked(rr, f.pickLocked(rr.cellID))
		}
		w, wake := rr.on, f.changed
		var rctx context.Context
		if w != nil {
			if rr.cancel != nil {
				rr.cancel()
			}
			rctx, rr.cancel = context.WithCancel(ctx)
		}
		f.mu.Unlock()
		if w != nil {
			return w, rctx, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
		}
	}
}

// release unparks a finished run.
func (f *fleet) release(rr *remoteRun) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rr.cancel != nil {
		rr.cancel()
	}
	f.moveLocked(rr, nil)
}

// moveLocked parks rr on worker to (nil: on none). Callers hold f.mu.
func (f *fleet) moveLocked(rr *remoteRun, to *coordWorker) {
	if rr.on != nil {
		delete(rr.on.runs, rr)
	}
	if rr.on = to; to != nil {
		to.runs[rr] = struct{}{}
	}
}

// evictLocked moves every run parked on w, which its caller has just
// taken out of placement, to the run's next rendezvous pick (or to none
// until a worker is routable again) and aborts its requests to w; each run
// carries on where it was moved, and each move counts as a reassignment.
// It returns how many runs moved. Callers hold f.mu.
func (f *fleet) evictLocked(w *coordWorker) int {
	n := len(w.runs)
	for rr := range w.runs {
		rr.cancel()
		f.moveLocked(rr, f.pickLocked(rr.cellID))
	}
	f.reassigned += int64(n)
	return n
}

// wakeLocked wakes the runs waiting for a routable worker. Callers hold
// f.mu.
func (f *fleet) wakeLocked() {
	close(f.changed)
	f.changed = make(chan struct{})
}

// ---- health ----

// noteWorker folds one observation of w into its health record — the
// single place a worker changes health. A probe counts toward the
// ProbeFails threshold and readmits on success; a failure on a run's
// request (probe=false) is conclusive at once. A worker that turns
// unhealthy has its runs moved; one that turns healthy wakes the runs
// waiting for a worker. Each transition logs one line.
func (f *fleet) noteWorker(w *coordWorker, ok, probe bool, cause error) {
	f.mu.Lock()
	was, fails := w.Healthy, w.ConsecutiveFailures
	switch {
	case ok:
		w.ConsecutiveFailures, w.Healthy = 0, true
	case probe:
		w.ConsecutiveFailures++
		w.Healthy = was && w.ConsecutiveFailures < f.probeFails
	default:
		w.ConsecutiveFailures, w.Healthy = max(w.ConsecutiveFailures, f.probeFails), false
	}
	if probe {
		w.LastProbe = time.Now()
	}
	now, moved := w.Healthy, 0
	if !ok {
		fails = w.ConsecutiveFailures
	}
	switch {
	case was && !now:
		moved = f.evictLocked(w)
	case !was && now:
		f.wakeLocked()
	}
	f.mu.Unlock()
	if was != now {
		state := map[bool]string{true: "healthy", false: "unhealthy"}
		level, attrs := slog.LevelInfo, []any{"worker", w.Addr, "oldState", state[was], "newState", state[now],
			"consecutiveFailures", fails, "reassignedCells", moved}
		if !now {
			level = slog.LevelWarn
			if cause != nil {
				attrs = append(attrs, "cause", cause.Error())
			}
		}
		f.log.Log(context.Background(), level, "worker health transition", attrs...)
	}
}

// markWorkerFailed records a failure of w — no answer, or a 503 to a run:
// the worker is immediately unhealthy (probes will readmit it) and its
// runs move. A request that failed because its own context ended — a
// departed client, a canceled job, a run moved off w — says nothing about
// the worker.
func (f *fleet) markWorkerFailed(w *coordWorker, cause error) {
	if !errors.Is(cause, context.Canceled) {
		f.noteWorker(w, false, false, cause)
	}
}

// prober probes every worker's /healthz each interval until Shutdown.
func (f *fleet) prober(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
		}
		for _, w := range f.workers {
			ctx, cancel := context.WithTimeout(context.Background(), f.probeTimeout)
			err := client.New(w.Addr).Health(ctx)
			cancel()
			f.noteWorker(w, err == nil, true, err)
		}
	}
}

// addStats is GET /v1/stats's fleet sum at a coordinator: the worker-pool
// sizes and scheduler counters of every worker that answers, added to st.
// A worker that gives no answer has failed; one that answers an error has
// not.
func (f *fleet) addStats(ctx context.Context, st *api.Stats) {
	for _, w := range f.workers {
		ws, err := client.New(w.Addr).Stats(ctx)
		var answered *client.APIError
		if err == nil {
			st.Workers += ws.Workers
			st.Scheduler.Simulated += ws.Scheduler.Simulated
			st.Scheduler.CacheHits += ws.Scheduler.CacheHits
			st.Scheduler.DiskHits += ws.Scheduler.DiskHits
			st.Scheduler.SimCycles += ws.Scheduler.SimCycles
		} else if !errors.As(err, &answered) {
			f.markWorkerFailed(w, err)
		}
	}
}

// ---- /v1/cluster ----

// clusterStats describes the fleet: each worker's membership record with
// the runs parked on it, and the coordinator's own counts.
func (s *Server) clusterStats() *api.ClusterStats {
	s.mu.Lock()
	cs := &api.ClusterStats{TrackedJobs: len(s.jobs), Sweeps: len(s.sweeps)}
	s.mu.Unlock()
	f := s.fleet
	f.mu.Lock()
	defer f.mu.Unlock()
	cs.ReassignedJobs = f.reassigned
	for _, w := range f.workers {
		ws := w.WorkerStatus
		ws.Jobs = len(w.runs)
		cs.Workers = append(cs.Workers, ws)
		if w.Healthy && !w.Draining {
			cs.Healthy++
		}
	}
	return cs
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ClusterStatus{Workers: s.clusterStats().Workers})
}

// handleDrain takes a worker out of placement (moving its runs to peers
// at once) or readmits it; readmission moves nothing back.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req api.DrainRequest
	if err := decodeBody(r, maxDrainBody, &req); err != nil {
		writeError(w, errBadRequest("decode drain request: %v", err))
		return
	}
	f, addr := s.fleet, workerURL(req.Addr)
	i := slices.IndexFunc(f.workers, func(w *coordWorker) bool { return w.Addr == addr })
	if i < 0 {
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown worker %q", req.Addr)})
		return
	}
	target, moved := f.workers[i], 0
	f.mu.Lock()
	if target.Draining != req.Drain {
		target.Draining = req.Drain
		if req.Drain {
			moved = f.evictLocked(target)
		} else {
			f.wakeLocked()
		}
	}
	f.mu.Unlock()
	if moved > 0 {
		f.log.Info("cells reassigned", "worker", addr, "moved", moved)
	}
	s.handleCluster(w, r)
}
