package server

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/explore"
	"gpumembw/internal/metrics"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers are the gpusimd worker base URLs the coordinator shards
	// cells across, e.g. "http://127.0.0.1:8373". At least one is
	// required; a bare host:port gets the http scheme prefixed.
	Workers []string
	// ProbeInterval is the /healthz probe period; 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request; 0 selects 2s.
	ProbeTimeout time.Duration
	// ProbeFails is how many consecutive probe failures mark a worker
	// unhealthy (its cells move to healthy peers); 0 selects 2.
	ProbeFails int
	// Logger, when non-nil, receives structured lifecycle events (worker
	// health transitions, reassignments). nil disables structured logging
	// (tests); cmd/gpusimd always wires one.
	Logger *slog.Logger
}

// coordWorker is one worker's membership record, kept in the form GET
// /v1/cluster serves it (Jobs is filled in per snapshot).
type coordWorker struct{ api.WorkerStatus }

// coordJob is the coordinator's placement record for one cell: enough
// to re-route the cell to a new worker (the spec and the submitting
// client's identity) and to answer reads for finished cells without a
// round trip (the worker's terminal response bytes, verbatim).
type coordJob struct {
	id       string
	spec     api.JobSpec
	worker   string
	owner    string    // forwarded client identity, for re-submission
	placedAt time.Time // taken just before the placement forward, so it precedes the worker's own spans
	snap     api.Job
	terminal []byte // raw worker bytes of the terminal snapshot
}

// Coordinator shards gpusimd's cell space across a fleet of workers by
// rendezvous-hashing each content-addressed cell ID, and serves the
// identical /v1 API: submissions and cancels are forwarded to the
// owning worker (responses proxied byte-for-byte), sweeps fan out as
// per-worker cell-list shards, listings and stats merge every worker's
// view, and job/sweep GETs long-poll against the owning workers.
// Placement is an operational concern only — the simulator is
// deterministic and cells are content-addressed, so which worker runs a
// cell (or re-runs it after a reassignment) can never change results.
//
// Workers are probed periodically; after ProbeFails consecutive
// failures a worker's cells are re-submitted to the remaining workers
// and it stops receiving placements until it answers probes again.
// POST /v1/cluster/drain does the same handover administratively.
type Coordinator struct {
	probeFails   int
	probeTimeout time.Duration
	proxy        *http.Client // no timeout: carries ?wait= long-polls
	log          *slog.Logger

	mu         sync.Mutex
	workers    []*coordWorker
	jobs       map[string]*coordJob
	sweeps     map[string]*sweepRec
	reassigned int64

	explorer *exploreHub

	registry     *metrics.Registry
	httpRequests *metrics.CounterVec
	httpLatency  *metrics.HistogramVec

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a Coordinator and starts its health prober.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("server: coordinator needs at least one -worker address")
	}
	co := &Coordinator{
		probeFails:   cmp.Or(opts.ProbeFails, 2),
		probeTimeout: cmp.Or(opts.ProbeTimeout, 2*time.Second),
		proxy:        &http.Client{},
		jobs:         make(map[string]*coordJob),
		sweeps:       make(map[string]*sweepRec),
		stop:         make(chan struct{}),
		log:          loggerOrDiscard(opts.Logger),
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
		co.workers = append(co.workers, &coordWorker{api.WorkerStatus{Addr: addr, Healthy: true}})
	}
	co.initMetrics()
	// Coordinator explorations fan probe cells out across the fleet; the
	// workers' shared disk cache (not a coordinator journal) is what makes
	// re-running a search free, so the hub runs unjournaled here.
	co.explorer, _ = newExploreHub("", explore.EvalEach(exploreEvalConcurrency, co.exploreCell), co.log) // dir "" never errors
	co.wg.Add(1)
	go co.prober(cmp.Or(opts.ProbeInterval, time.Second))
	return co, nil
}

// initMetrics builds the /metrics registry; the cluster series read the
// same snapshot GET /v1/cluster serves.
func (co *Coordinator) initMetrics() {
	r := metrics.NewRegistry()
	co.registry = r
	co.httpRequests, co.httpLatency = httpMetrics(r)
	r.GaugeFunc("gpusimd_cluster_workers", "Workers configured on the coordinator.",
		func() float64 { return float64(len(co.clusterStats().Workers)) })
	r.GaugeFunc("gpusimd_cluster_workers_healthy", "Workers currently healthy and not draining.",
		func() float64 { return float64(co.clusterStats().Healthy) })
	r.GaugeFunc("gpusimd_cluster_tracked_jobs", "Cells the coordinator has placed.",
		func() float64 { return float64(co.clusterStats().TrackedJobs) })
	r.CounterFunc("gpusimd_cluster_reassigned_jobs_total",
		"Cells re-routed after their worker became unhealthy or was drained.",
		func() float64 { return float64(co.clusterStats().ReassignedJobs) })
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

// workerAddrs snapshots the configured worker addresses, in order.
func (co *Coordinator) workerAddrs() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	addrs := make([]string, len(co.workers))
	for i, w := range co.workers {
		addrs[i] = w.Addr
	}
	return addrs
}

// Handler returns the coordinator's route table — the daemon's API plus
// the /v1/cluster membership routes.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealth)
	mux.HandleFunc("GET /metrics", handleMetrics(co.registry))
	mux.HandleFunc("GET /v1/stats", co.handleStats)
	mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", co.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", co.handleJobProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", co.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", co.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", co.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", co.handleSweepGet)
	mux.HandleFunc("POST /v1/explore", handleExploreSubmit(co.explorer))
	mux.HandleFunc("GET /v1/explorations/{id}", handleExploreGet(co.explorer))
	mux.HandleFunc("GET /v1/benchmarks", handleBenchmarks)
	mux.HandleFunc("GET /v1/configs", handleConfigs)
	mux.HandleFunc("GET /v1/knobs", handleKnobs)
	mux.HandleFunc("GET /v1/cluster", co.handleCluster)
	mux.HandleFunc("POST /v1/cluster/drain", co.handleDrain)
	return withTrace(instrument(mux, co.httpRequests, co.httpLatency))
}

// Shutdown stops the health prober. In-flight proxied requests finish
// on their own; workers own all simulation state.
func (co *Coordinator) Shutdown(context.Context) error {
	select {
	case <-co.stop:
		return errors.New("server: coordinator already shut down")
	default:
	}
	close(co.stop)
	co.explorer.shutdown()
	co.wg.Wait()
	return nil
}

// ---- placement ----

// pickLocked rendezvous-hashes cellID over the routable workers
// (healthy, not draining, not excluded): every entry point ranks
// workers by sha256(addr|cellID) and the highest score wins, so the
// same cell lands on the same worker from any coordinator with the same
// membership view — twin submissions shard identically and memoize.
func (co *Coordinator) pickLocked(cellID string, exclude map[string]bool) *coordWorker {
	var best *coordWorker
	var bestScore [sha256.Size]byte
	for _, w := range co.workers {
		if !w.Healthy || w.Draining || exclude[w.Addr] {
			continue
		}
		score := sha256.Sum256([]byte(w.Addr + "|" + cellID))
		if best == nil || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = w, score
		}
	}
	return best
}

// errNoWorkers is the 503 returned when no worker can take a placement.
var errNoWorkers = &httpError{
	status:     http.StatusServiceUnavailable,
	retryAfter: time.Second,
	msg:        "server: no healthy workers available",
}

// forwardIdentity is the client identity the coordinator forwards to
// workers as the X-API-Key header, so per-client rate limits and
// inflight quotas keep binding to the original client — not to the
// coordinator's own address — across the fleet. It is the bare form of
// the daemon's own clientKey: clients that present an API key keep it;
// others are identified by their host.
func forwardIdentity(r *http.Request) string {
	_, id, _ := strings.Cut(clientKey(r), ":")
	return id
}

// upstream is one worker's complete answer: status, headers and the
// (bounded) body, read and closed.
type upstream struct {
	status int
	header http.Header
	body   []byte
}

func (u *upstream) ok() bool { return u.status >= 200 && u.status <= 299 }

// relay copies the worker's answer to the client byte-for-byte — status,
// error envelope and Retry-After included — so a client cannot tell a
// coordinator's answer from the worker's own.
func (u *upstream) relay(w http.ResponseWriter) {
	for _, h := range []string{"Content-Type", "Retry-After", longPollHeader} {
		if v := u.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(u.status)
	w.Write(u.body) //nolint:errcheck // response committed
}

// call is the one way the coordinator talks to a worker: issue the
// request, read the bounded body, close it, and decode a 2xx answer into
// out when non-nil (best effort: out is bookkeeping, the raw bytes are
// what clients see). pathAndQuery carries the original query string;
// identity rides X-API-Key. A non-nil error means the worker never
// delivered an answer — a worker-sent HTTP error comes back as an
// upstream, to be proxied verbatim.
func (co *Coordinator) call(ctx context.Context, workerAddr, method, pathAndQuery, identity string, body []byte, out any) (*upstream, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, workerAddr+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if identity != "" {
		req.Header.Set(apiKeyHeader, identity)
	}
	// Propagate the request's trace ID to the worker, so one X-Trace-Id
	// follows a submission from the fleet entry point to the simulating
	// daemon (the cluster smoke test pins this survival).
	if id := traceIDFrom(ctx); id != "" {
		req.Header.Set(api.TraceHeader, id)
	}
	resp, err := co.proxy.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("server: reading worker response: %w", err)
	}
	up := &upstream{status: resp.StatusCode, header: resp.Header, body: data}
	if out != nil && up.ok() {
		json.Unmarshal(data, out) //nolint:errcheck // bookkeeping only
	}
	return up, nil
}

// workerLocked finds a configured worker by address; callers hold co.mu.
func (co *Coordinator) workerLocked(addr string) *coordWorker {
	for _, w := range co.workers {
		if w.Addr == addr {
			return w
		}
	}
	return nil
}

// pendingOnLocked lists the non-terminal cells placed on addr — the
// reassignment workload of losing or draining it. Callers hold co.mu.
func (co *Coordinator) pendingOnLocked(addr string) []*coordJob {
	var pending []*coordJob
	for _, j := range co.jobs {
		if j.worker == addr && !j.snap.State.Terminal() {
			pending = append(pending, j)
		}
	}
	return pending
}

// noteWorker folds one observation of a worker into its health record —
// the single place a worker changes health. A probe counts toward the
// ProbeFails threshold and readmits on success; a transport failure on
// the request path (probe=false) is conclusive at once. Each transition,
// either way, logs one line. lost reports that this call took the worker
// out; the caller moves its cells.
func (co *Coordinator) noteWorker(addr string, ok, probe bool, cause error) (lost bool) {
	co.mu.Lock()
	w := co.workerLocked(addr)
	if w == nil {
		co.mu.Unlock()
		return false
	}
	was, fails := w.Healthy, w.ConsecutiveFailures
	switch {
	case ok:
		w.ConsecutiveFailures, w.Healthy = 0, true
	case probe:
		w.ConsecutiveFailures++
		w.Healthy = was && w.ConsecutiveFailures < co.probeFails
	default:
		w.ConsecutiveFailures, w.Healthy = max(w.ConsecutiveFailures, co.probeFails), false
	}
	if probe {
		w.LastProbe = time.Now()
	}
	now, moving := w.Healthy, 0
	if !ok {
		fails = w.ConsecutiveFailures
	}
	if was && !now {
		moving = len(co.pendingOnLocked(addr))
	}
	co.mu.Unlock()
	if was != now {
		state := map[bool]string{true: "healthy", false: "unhealthy"}
		level, attrs := slog.LevelInfo, []any{"worker", addr, "oldState", state[was], "newState", state[now],
			"consecutiveFailures", fails, "reassignedCells", moving}
		if !now {
			level = slog.LevelWarn
			if cause != nil {
				attrs = append(attrs, "cause", cause.Error())
			}
		}
		co.log.Log(context.Background(), level, "worker health transition", attrs...)
	}
	return was && !now
}

// markWorkerFailed records a transport failure on addr: the worker is
// immediately unhealthy (probes will readmit it) and its cells are
// handed to the remaining workers in the background. A request that
// failed because its own client went away says nothing about the worker.
func (co *Coordinator) markWorkerFailed(addr string, cause error) {
	if !errors.Is(cause, context.Canceled) && co.noteWorker(addr, false, false, cause) {
		go co.reassignWorker(addr)
	}
}

// reassignWorker re-submits every non-terminal cell placed on addr to a
// new rendezvous pick. Determinism makes the handover invisible in the
// results: the new worker either re-simulates to byte-identical metrics
// or serves them from a shared cache.
func (co *Coordinator) reassignWorker(addr string) {
	co.mu.Lock()
	moving := co.pendingOnLocked(addr)
	co.mu.Unlock()
	moved, failed := 0, 0
	for _, j := range moving {
		if _, _, err := co.placeJob(context.Background(), j.id, j.spec, j.owner, map[string]bool{addr: true}); err != nil {
			co.log.Warn("cell reassignment failed", "job", j.id, "worker", addr, "err", err)
			failed++
			continue
		}
		moved++
	}
	if moved > 0 || failed > 0 {
		co.log.Info("cells reassigned", "worker", addr, "moved", moved, "failed", failed)
	}
}

// placeJob submits one cell to its rendezvous worker (excluding any in
// exclude), walking down the preference order as transport failures
// knock workers out. On success the placement is tracked — counted as a
// reassignment when it moved the cell off another worker — the worker's
// snapshot observed, and both returned.
func (co *Coordinator) placeJob(ctx context.Context, id string, spec api.JobSpec, identity string, exclude map[string]bool) (*upstream, api.Job, error) {
	if exclude == nil {
		exclude = make(map[string]bool)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, api.Job{}, err
	}
	for {
		co.mu.Lock()
		w := co.pickLocked(id, exclude)
		co.mu.Unlock()
		if w == nil {
			return nil, api.Job{}, errNoWorkers
		}
		placed := time.Now()
		var snap api.Job
		up, err := co.call(ctx, w.Addr, http.MethodPost, "/v1/jobs", identity, body, &snap)
		if err != nil {
			exclude[w.Addr] = true
			co.markWorkerFailed(w.Addr, err)
			continue
		}
		co.trackJob(id, spec, w.Addr, identity, placed)
		co.observe(snap, up.body)
		return up, snap, nil
	}
}

// trackJob records (or moves) a cell's placement. placed is taken before
// the placement forward so the coordinator's span precedes the worker's.
func (co *Coordinator) trackJob(id string, spec api.JobSpec, workerAddr, identity string, placed time.Time) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[id]
	if !ok {
		j = &coordJob{id: id, spec: spec, owner: identity}
		j.snap = api.Job{ID: id, State: api.JobQueued, Spec: spec}
		co.jobs[id] = j
	} else if j.worker != workerAddr {
		co.reassigned++
	}
	j.worker = workerAddr
	j.placedAt = placed
}

// observe folds a fresh worker snapshot into the placement record,
// caching the raw bytes of terminal states so future reads skip the
// round trip (and survive the worker retiring).
func (co *Coordinator) observe(snap api.Job, raw []byte) {
	if snap.ID == "" {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[snap.ID]
	if !ok {
		return
	}
	j.snap = snap
	if !snap.State.Terminal() {
		j.terminal = nil // canceled jobs can be re-enqueued
	} else if j.terminal == nil {
		j.terminal = raw
	}
}

// tracked returns a copy of cell id's placement record, if this
// coordinator placed it.
func (co *Coordinator) tracked(id string) (coordJob, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[id]
	if !ok {
		return coordJob{}, false
	}
	return *j, true
}

// errUntracked reports a per-cell request for a cell this coordinator
// never placed.
var errUntracked = errors.New("server: untracked job")

// cellRequest performs one per-cell verb — GET job, profile, trace,
// DELETE, the sweep-wait refresh, the explore probe's poll — against the
// worker that owns a tracked cell; pathAndQuery continues
// "/v1/jobs/{id}". One fail-over rule serves every verb: a transport
// failure marks the worker failed (its cells move off in the background)
// and answers 503 "worker unreachable". A read of the job's own snapshot
// (jobRead) goes further, because any worker can reproduce a
// deterministic cell while a cancel or a profile belongs to the lost
// run: the cell is re-placed synchronously and the read retried there,
// and a finished cell is answered from its cached terminal bytes.
func (co *Coordinator) cellRequest(ctx context.Context, id, method, pathAndQuery, identity string, jobRead bool, out any) (*upstream, error) {
	for attempt := 0; ; attempt++ {
		j, ok := co.tracked(id)
		if !ok {
			return nil, errUntracked
		}
		if j.terminal != nil && jobRead {
			if out != nil {
				json.Unmarshal(j.terminal, out) //nolint:errcheck // bookkeeping only
			}
			return &upstream{status: http.StatusOK, header: http.Header{"Content-Type": {"application/json"}}, body: j.terminal}, nil
		}
		up, err := co.call(ctx, j.worker, method, "/v1/jobs/"+id+pathAndQuery, identity, nil, out)
		if err == nil {
			return up, nil
		}
		if ctx.Err() != nil {
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server: client canceled"}
		}
		co.markWorkerFailed(j.worker, err)
		if !jobRead {
			return nil, &httpError{status: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("server: worker %s unreachable: %v", j.worker, err)}
		}
		if attempt >= len(co.workers) { // the slice itself never changes after New
			return nil, errNoWorkers
		}
		if _, _, err := co.placeJob(ctx, id, j.spec, j.owner, map[string]bool{j.worker: true}); err != nil {
			return nil, err
		}
	}
}

// cellAnswer fetches the owning worker's answer to one per-cell route
// (decoded into out when 2xx). When there is none to relay it writes the
// response itself and returns nil: cells placed elsewhere (a peer entry
// point, a direct client) are looked for on every worker when the verb
// is a read, a cancel of an untracked cell is a 404, and a lost worker
// is cellRequest's 503.
func (co *Coordinator) cellAnswer(w http.ResponseWriter, r *http.Request, method, suffix string, out any) *upstream {
	id := r.PathValue("id")
	pq := suffix
	if r.URL.RawQuery != "" {
		pq += "?" + r.URL.RawQuery
	}
	jobRead := method == http.MethodGet && suffix == ""
	up, err := co.cellRequest(r.Context(), id, method, pq, forwardIdentity(r), jobRead, out)
	switch {
	case errors.Is(err, errUntracked) && method == http.MethodGet:
		co.fanoutGet(w, r, "/v1/jobs/"+id+suffix)
	case errors.Is(err, errUntracked):
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown job %q", id)})
	case err != nil:
		writeError(w, err)
	}
	return up
}

// relayJob relays a verb whose answer is the job's own snapshot (GET,
// DELETE) and folds that snapshot into the placement record.
func (co *Coordinator) relayJob(w http.ResponseWriter, r *http.Request, method string) {
	var snap api.Job
	if up := co.cellAnswer(w, r, method, "", &snap); up != nil {
		up.relay(w)
		co.observe(snap, up.body)
	}
}

// ---- handlers ----

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	if err := decodeBody(r, maxJobBody, &spec); err != nil {
		writeError(w, errBadRequest("decode job spec: %v", err))
		return
	}
	cell, err := resolveSpec(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	up, _, err := co.placeJob(r.Context(), cell.CellID(), spec, forwardIdentity(r), nil)
	if err != nil {
		writeError(w, err)
		return
	}
	up.relay(w)
}

func (co *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(longPollHeader, "supported")
	if _, he := parseWait(r); he != nil {
		writeError(w, he)
		return
	}
	co.relayJob(w, r, http.MethodGet)
}

// handleJobProfile relays GET /v1/jobs/{id}/profile. The worker's payload
// — profile or 404 envelope — is proxied verbatim: profiles are
// deterministic artifacts, identical whichever worker produced them.
func (co *Coordinator) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	if up := co.cellAnswer(w, r, http.MethodGet, "/profile", nil); up != nil {
		up.relay(w)
	}
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	co.relayJob(w, r, http.MethodDelete)
}

// handleJobTrace relays GET /v1/jobs/{id}/trace from the owning worker,
// prepending the coordinator's own placement marker so the timeline
// shows the fleet hop in front of the worker's lifecycle spans.
func (co *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, _ := co.tracked(r.PathValue("id"))
	up := co.cellAnswer(w, r, http.MethodGet, "/trace", nil)
	if up == nil {
		return
	}
	var tr api.Trace
	if up.status != http.StatusOK || json.Unmarshal(up.body, &tr) != nil {
		// Not a trace payload (error envelope, decode failure): proxy it
		// byte-for-byte like any other worker response.
		up.relay(w)
		return
	}
	end := j.placedAt
	placed := api.Span{Name: "placed", Start: j.placedAt, End: &end,
		Attrs: map[string]string{"worker": j.worker}}
	tr.Spans = append([]api.Span{placed}, tr.Spans...)
	writeJSON(w, http.StatusOK, tr)
}

// fanoutGet proxies a GET to every worker until one answers non-404;
// otherwise a 404 is synthesized.
func (co *Coordinator) fanoutGet(w http.ResponseWriter, r *http.Request, path string) {
	identity := forwardIdentity(r)
	for _, addr := range co.workerAddrs() {
		up, err := co.call(r.Context(), addr, http.MethodGet, path, identity, nil, nil)
		if err != nil || up.status == http.StatusNotFound {
			continue
		}
		up.relay(w)
		return
	}
	writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown resource %q on any worker", path)})
}

func (co *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := decodeBody(r, maxSweepBody, &req); err != nil {
		writeError(w, errBadRequest("decode sweep request: %v", err))
		return
	}
	ex, err := expandSweep(req)
	if err != nil {
		writeError(w, err)
		return
	}
	byID, rejected, err := co.admitSweep(r.Context(), ex.cells, forwardIdentity(r))
	if rejected != nil {
		rejected.relay(w) // the rejecting worker's own envelope, verbatim
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	// Merge the shard responses in the request's cell order — the same
	// order a single daemon returns — and register the sweep resource.
	id := sweepID(ex.cells)
	out := api.SweepResponse{ID: id, Requested: ex.requested, Deduped: ex.requested - len(ex.cells)}
	for _, c := range ex.cells {
		out.Jobs = append(out.Jobs, byID[c.id])
	}
	co.mu.Lock()
	registerSweep(co.sweeps, id, ex)
	co.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// admitSweep shards cells by rendezvous placement and admits shard by
// shard, returning every cell's snapshot. Admission is all-or-nothing per
// worker already (the daemon's atomic sweep admission); across workers
// the coordinator compensates — if a later shard is rejected (queue full,
// quota, drain: returned as rejected) or cannot be placed, the jobs
// earlier shards queued are canceled best-effort, so the client retries
// one all-or-nothing operation, never reasons about half a sweep.
func (co *Coordinator) admitSweep(ctx context.Context, cells []resolvedCell, identity string) (byID map[string]api.Job, rejected *upstream, err error) {
	byID = make(map[string]api.Job, len(cells))
	var queued [][2]string // (worker, job ID) this sweep enqueued so far
	defer func() {
		if rejected == nil && err == nil {
			return
		}
		for _, q := range queued {
			co.call(context.Background(), q[0], http.MethodDelete, "/v1/jobs/"+q[1], identity, nil, nil) //nolint:errcheck // best-effort undo
		}
	}()
	excluded := make(map[string]bool)
	for pending := cells; len(pending) > 0; {
		// Partition what's left over the currently routable workers.
		co.mu.Lock()
		parts := make(map[string][]resolvedCell)
		for _, c := range pending {
			if wk := co.pickLocked(c.id, excluded); wk != nil {
				parts[wk.Addr] = append(parts[wk.Addr], c)
			}
		}
		co.mu.Unlock()
		if len(parts) == 0 {
			return nil, nil, errNoWorkers
		}
		addrs := make([]string, 0, len(parts))
		for addr := range parts {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		pending = nil
		for _, addr := range addrs {
			shard := parts[addr]
			specs := make([]api.JobSpec, len(shard))
			for i, c := range shard {
				specs[i] = c.spec
			}
			body, err := json.Marshal(api.SweepRequest{Cells: specs})
			if err != nil {
				return nil, nil, err
			}
			placed := time.Now()
			var sr api.SweepResponse
			up, err := co.call(ctx, addr, http.MethodPost, "/v1/sweeps", identity, body, &sr)
			if err != nil {
				// Transport failure: the shard moves to the next pick.
				excluded[addr] = true
				co.markWorkerFailed(addr, err)
				pending = append(pending, shard...)
				continue
			}
			if !up.ok() {
				return nil, up, nil
			}
			if len(sr.Jobs) != len(shard) {
				return nil, nil, fmt.Errorf("server: worker %s sweep response unreadable", addr)
			}
			for i, job := range sr.Jobs {
				byID[job.ID] = job
				co.trackJob(job.ID, shard[i].spec, addr, identity, placed)
				co.observe(job, nil)
				if job.State == api.JobQueued {
					queued = append(queued, [2]string{addr, job.ID})
				}
			}
		}
	}
	return byID, nil, nil
}

// refreshJob fetches one cell's current snapshot from its worker,
// long-polling up to wait. Transport failures re-place the cell inline
// (cellRequest), so a mid-sweep worker loss heals on the read path too,
// not only via the prober.
func (co *Coordinator) refreshJob(ctx context.Context, id string, wait time.Duration) (api.Job, error) {
	j, ok := co.tracked(id)
	if !ok {
		return api.Job{}, fmt.Errorf("server: untracked job %q", id)
	}
	snap := j.snap
	if snap.State.Terminal() {
		return snap, nil
	}
	query := ""
	if wait > 0 {
		query = "?wait=" + wait.String()
	}
	var fresh api.Job
	up, err := co.cellRequest(ctx, id, http.MethodGet, query, j.owner, true, &fresh)
	switch {
	case ctx.Err() != nil:
		return snap, nil
	case err != nil:
		return snap, err
	case up.status != http.StatusOK || fresh.ID == "":
		return snap, nil // stale snapshot beats a failed read
	}
	co.observe(fresh, up.body)
	return fresh, nil
}

func (co *Coordinator) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(longPollHeader, "supported")
	d, he := parseWait(r)
	if he != nil {
		writeError(w, he)
		return
	}
	id := r.PathValue("id")
	co.mu.Lock()
	rec, ok := co.sweeps[id]
	co.mu.Unlock()
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown sweep %q", id)})
		return
	}
	deadline := time.Now().Add(d)
	for {
		snaps := make(map[string]api.Job, len(rec.jobIDs))
		pendingID := ""
		for _, jid := range rec.jobIDs {
			snap, err := co.refreshJob(r.Context(), jid, 0)
			if err != nil {
				writeError(w, err)
				return
			}
			snaps[jid] = snap
			if !snap.State.Terminal() && pendingID == "" {
				pendingID = jid
			}
		}
		remaining := time.Until(deadline)
		if pendingID == "" || remaining <= 0 || r.Context().Err() != nil {
			co.mu.Lock()
			sw := rec.view(func(jid string) api.Job { return snaps[jid] })
			co.mu.Unlock()
			writeJSON(w, http.StatusOK, sw)
			return
		}
		// Park the remaining wait on one pending cell's worker: a true
		// long-poll round, so the coordinator adds no interval polling
		// of its own. Graceful drains make workers answer early; the
		// loop then re-assembles and parks again within the deadline.
		if remaining > waitRound {
			remaining = waitRound
		}
		if _, err := co.refreshJob(r.Context(), pendingID, remaining); err != nil {
			writeError(w, err)
			return
		}
	}
}

// waitRound caps one upstream long-poll leg of a coordinator sweep wait.
const waitRound = 30 * time.Second

// gather GETs pathAndQuery from every worker and hands fn each 200
// answer, decoded into a fresh T. A worker that does not answer is marked
// failed and skipped.
func gather[T any](co *Coordinator, r *http.Request, pathAndQuery string, fn func(addr string, v T)) {
	identity := forwardIdentity(r)
	for _, addr := range co.workerAddrs() {
		var v T
		up, err := co.call(r.Context(), addr, http.MethodGet, pathAndQuery, identity, nil, &v)
		if err != nil {
			co.markWorkerFailed(addr, err)
		} else if up.status == http.StatusOK {
			fn(addr, v)
		}
	}
}

// handleList fans the identical query out to every worker (the shared
// token format makes a client cursor valid fleet-wide) and merges the
// pages. A reassigned cell exists on two workers; the currently tracked
// placement wins.
func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	lq, he := parseListQuery(r.URL.Query())
	if he != nil {
		writeError(w, he)
		return
	}
	pq := "/v1/jobs"
	if r.URL.RawQuery != "" {
		pq += "?" + r.URL.RawQuery
	}
	var pages []workerPage
	gather(co, r, pq, func(addr string, list api.JobList) {
		pages = append(pages, workerPage{addr: addr, list: list})
	})
	writeJSON(w, http.StatusOK, mergePages(pages, func(id string) (string, bool) {
		j, ok := co.tracked(id)
		return j.worker, ok
	}, lq))
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	var merged api.Stats
	merged.Jobs = make(map[api.JobState]int)
	gather(co, r, "/v1/stats", func(_ string, st api.Stats) {
		merged.Scheduler.Simulated += st.Scheduler.Simulated
		merged.Scheduler.CacheHits += st.Scheduler.CacheHits
		merged.Scheduler.DiskHits += st.Scheduler.DiskHits
		merged.Scheduler.SimCycles += st.Scheduler.SimCycles
		merged.Workers += st.Workers
		merged.QueueDepth += st.QueueDepth
		merged.QueueCap += st.QueueCap
		for state, n := range st.Jobs {
			merged.Jobs[state] += n
		}
		merged.RateLimited += st.RateLimited
		merged.QuotaDenied += st.QuotaDenied
		merged.DiskCacheEntries += st.DiskCacheEntries
		merged.DiskCacheBytes += st.DiskCacheBytes
		merged.DiskCacheEvictions += st.DiskCacheEvictions
	})
	merged.Cluster = co.clusterStats()
	writeJSON(w, http.StatusOK, merged)
}

func (co *Coordinator) clusterStats() *api.ClusterStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	cs := &api.ClusterStats{
		TrackedJobs:    len(co.jobs),
		Sweeps:         len(co.sweeps),
		ReassignedJobs: co.reassigned,
	}
	perWorker := make(map[string]int)
	for _, j := range co.jobs {
		perWorker[j.worker]++
	}
	for _, wk := range co.workers {
		ws := wk.WorkerStatus
		ws.Jobs = perWorker[wk.Addr]
		cs.Workers = append(cs.Workers, ws)
		if wk.Healthy && !wk.Draining {
			cs.Healthy++
		}
	}
	return cs
}

func (co *Coordinator) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ClusterStatus{Workers: co.clusterStats().Workers})
}

func (co *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req api.DrainRequest
	if err := decodeBody(r, maxDrainBody, &req); err != nil {
		writeError(w, errBadRequest("decode drain request: %v", err))
		return
	}
	addr := workerURL(req.Addr)
	co.mu.Lock()
	target := co.workerLocked(addr)
	if target == nil {
		co.mu.Unlock()
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown worker %q", req.Addr)})
		return
	}
	changed := target.Draining != req.Drain
	target.Draining = req.Drain
	co.mu.Unlock()
	if changed && req.Drain {
		co.reassignWorker(addr)
	}
	co.handleCluster(w, r)
}

// ---- health probing ----

// prober probes every worker's /healthz each interval until Shutdown; a
// worker that crosses the failure threshold has its cells moved.
func (co *Coordinator) prober(interval time.Duration) {
	defer co.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		for _, addr := range co.workerAddrs() {
			ctx, cancel := context.WithTimeout(context.Background(), co.probeTimeout)
			up, err := co.call(ctx, addr, http.MethodGet, "/healthz", "", nil, nil)
			cancel()
			if co.noteWorker(addr, err == nil && up.status == http.StatusOK, true, err) {
				co.reassignWorker(addr)
			}
		}
	}
}
