package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

// Handler returns the server's route table, the one both entry points
// serve:
//
//	GET    /healthz           liveness
//	GET    /metrics           Prometheus text exposition
//	GET    /v1/stats          scheduler counters (a coordinator's: its own + its fleet's) + queue gauges
//	POST   /v1/jobs           submit one cell (api.JobSpec)
//	GET    /v1/jobs           list jobs (?state=&limit=&page_token=)
//	GET    /v1/jobs/{id}      poll one job (?wait= long-polls)
//	GET    /v1/jobs/{id}/profile  bottleneck profile of a Profile=true run
//	GET    /v1/jobs/{id}/trace    lifecycle span timeline
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/sweeps         submit a config×workload cross product
//	GET    /v1/sweeps/{id}    poll one sweep (?wait= long-polls)
//	POST   /v1/explore        start (or join) a design-space exploration
//	GET    /v1/explorations/{id}  poll one exploration (?wait= long-polls)
//	GET    /v1/benchmarks     benchmark names (Table II order)
//	GET    /v1/configs        full canonical preset configs (sorted by name)
//	GET    /v1/knobs          the mitigation knob-space model (paths, bounds)
//	GET    /v1/cluster        a coordinator's worker table
//	POST   /v1/cluster/drain  take a coordinator's worker out of placement (or readmit it)
//
// The two /v1/cluster routes are mounted only on a coordinator. Every
// route is instrumented with per-endpoint request counters and
// latency histograms; the mutating routes (submit, sweep, cancel) sit
// behind the per-client rate limiter when one is configured, so polling
// a throttled client's jobs stays cheap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealth)
	mux.HandleFunc("GET /metrics", handleMetrics(s.registry))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs", s.limited(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.limited(s.handleCancel))
	mux.HandleFunc("POST /v1/sweeps", s.limited(s.handleSweep))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("POST /v1/explore", s.limited(s.handleExploreSubmit))
	mux.HandleFunc("GET /v1/explorations/{id}", s.handleExploreGet)
	mux.HandleFunc("GET /v1/benchmarks", handleBenchmarks)
	mux.HandleFunc("GET /v1/configs", handleConfigs)
	mux.HandleFunc("GET /v1/knobs", handleKnobs)
	if s.fleet != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		mux.HandleFunc("POST /v1/cluster/drain", s.handleDrain)
	}
	return withTrace(instrument(mux, s.httpRequests, s.httpLatency))
}

// Request-body caps: a job spec or explore request (one inline config
// and workload at most), a sweep (a cell list, or axes of inline values),
// a drain request.
const (
	maxJobBody   = 8 << 20
	maxSweepBody = 64 << 20
	maxDrainBody = 1 << 20
)

// maxSweepCells bounds a sweep's size before any cell is resolved: the
// cells list's length, or the axes' cross product — which a few KB of
// repeated names can make arbitrarily large, and which dedupes to almost
// nothing, so neither the body cap, the queue bound nor the quota sees
// it. 160 × the paper's whole 407-cell report.
const maxSweepCells = 1 << 16

// decodeBody decodes a JSON request body into v, reading at most limit
// bytes of it: a larger body fails to decode (callers answer 400) instead
// of being buffered whole.
func decodeBody(r *http.Request, limit int64, v any) error {
	return json.NewDecoder(io.LimitReader(r.Body, limit)).Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeError maps an error to its HTTP status (500 unless it is an
// *httpError) and emits the uniform api.Error envelope: a
// machine-readable code, human-readable detail, and — on 429/503 — a
// retry hint that rides both the envelope's retryAfter field and the
// standard Retry-After header, rounded up to whole seconds.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var retrySecs int64
	code := ""
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
		code = he.code
		if he.retryAfter > 0 {
			retrySecs = int64((he.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(retrySecs, 10))
		}
	}
	if code == "" {
		code = api.CodeForStatus(status)
	}
	writeJSON(w, status, api.Error{Code: code, Detail: err.Error(), RetryAfter: retrySecs})
}

// handleStats serves Stats; at a coordinator the fleet's worker counts and
// scheduler counters are added to its own (it simulates nothing, so
// simulated is the fleet's) and the cluster section describes the fleet.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if s.fleet != nil {
		s.fleet.addStats(r.Context(), &st)
		st.Cluster = s.clusterStats()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
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
	j, created, err := s.submit(spec, cell, clientKey(r), traceIDFrom(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, s.snapshot(j))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(longPollHeader, "supported")
	d, he := parseWait(r)
	if he != nil {
		writeError(w, he)
		return
	}
	id := r.PathValue("id")
	j, err := longPoll(s, r.Context(), d, func() (api.Job, bool, error) {
		j, ok := s.jobs[id]
		if !ok {
			return api.Job{}, false, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown job %q", id)}
		}
		return j.Job, j.State.Terminal(), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleProfile serves a finished Profile=true job's bottleneck profile.
// Until the job is done (or when it ran unprofiled) the resource does not
// exist yet: 404 with a detail explaining which case applies.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown job %q", id)})
		return
	}
	state := j.State
	prof := j.profile
	payload := api.JobProfile{JobID: j.ID, Config: j.cell.Config.Label(), Bench: j.cell.Workload.Label(), Profile: prof}
	s.mu.Unlock()
	switch {
	case prof != nil:
		writeJSON(w, http.StatusOK, payload)
	case state == api.JobDone:
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("server: job %q ran without profiling; resubmit it with profile=true", id)})
	default:
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("server: job %q is %s; its profile appears when a profile=true run completes", id, state)})
	}
}

// handleTrace serves the job's lifecycle span timeline. Unlike the
// profile, the trace exists from the moment the job is submitted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown job %q", id)})
		return
	}
	tr := j.traceView()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	lq, he := parseListQuery(r.URL.Query())
	if he != nil {
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, s.listJobs(lq))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.cancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot(j))
}

// sweepExpansion is a POST /v1/sweeps request resolved into its unique
// cells; an axis-form request also carries its grid.
type sweepExpansion struct {
	cells     []resolvedCell
	requested int
	grid      *exp.Grid
}

// expandSweep validates and resolves a sweep request. Every cell is
// resolved up front so a malformed corner of the cross product rejects
// the whole sweep instead of half-submitting it — after the request's
// size has been held to maxSweepCells.
func expandSweep(req api.SweepRequest) (*sweepExpansion, error) {
	nWorkloads := len(req.Benches) + len(req.InlineSpecs)
	nConfigs := len(req.Configs) + len(req.InlineConfigs) + len(req.ConfigPatches)
	if n := len(req.Cells) + nConfigs*nWorkloads; n > maxSweepCells {
		return nil, errBadRequest("sweep: %d cells (%d listed + %d configs × %d workloads) exceed the bound of %d per sweep",
			n, len(req.Cells), nConfigs, nWorkloads, maxSweepCells)
	}
	ex := &sweepExpansion{}
	seen := make(map[string]int) // cell ID -> index in ex.cells
	// add keeps the first occurrence of every distinct cell; a cell asks
	// for a profile if any of its occurrences does.
	add := func(sp api.JobSpec, cell exp.Job) {
		ex.requested++
		id := cell.CellID()
		if i, dup := seen[id]; dup {
			ex.cells[i].spec.Profile = ex.cells[i].spec.Profile || sp.Profile
		} else {
			seen[id] = len(ex.cells)
			ex.cells = append(ex.cells, resolvedCell{id: id, spec: sp, cell: cell})
		}
	}
	if len(req.Cells) > 0 {
		if nWorkloads+nConfigs > 0 {
			return nil, errBadRequest("sweep: cells and the config/workload axes are mutually exclusive")
		}
		for _, sp := range req.Cells {
			cell, err := resolveSpec(sp)
			if err != nil {
				return nil, err
			}
			add(sp, cell)
		}
		return ex, nil
	}
	if nWorkloads == 0 {
		return nil, errBadRequest("sweep: one of benches, inlineSpecs or cells is required")
	}
	if nConfigs == 0 {
		return nil, errBadRequest("sweep: one of configs, inlineConfigs or configPatches is required")
	}

	// The grid's axes, each in request order: preset names, inline configs,
	// then patches; benchmark names, then inline specs.
	var cols []exp.ConfigRef
	var rows []exp.WorkloadRef
	for _, name := range req.Configs {
		cols = append(cols, exp.PresetRef(name))
	}
	for i := range req.InlineConfigs {
		cols = append(cols, exp.ConfigRef{Config: &req.InlineConfigs[i]})
	}
	for i := range req.ConfigPatches {
		cols = append(cols, exp.ConfigRef{Patch: &req.ConfigPatches[i]})
	}
	for _, b := range req.Benches {
		rows = append(rows, exp.BenchRef(b))
	}
	for i := range req.InlineSpecs {
		rows = append(rows, exp.WorkloadRef{Spec: &req.InlineSpecs[i]})
	}
	cellSpec := func(c, w int) api.JobSpec {
		return api.JobSpec{Config: cols[c].Preset, InlineConfig: cols[c].Config, ConfigPatch: cols[c].Patch,
			Bench: rows[w].Bench, InlineSpec: rows[w].Spec}
	}
	ex.grid = exp.NewGrid(cols, rows)
	cells, err := ex.grid.Jobs()
	var bad *exp.CellError
	if errors.As(err, &bad) {
		// Name the invalid cell in the wire's terms, as a cell list would.
		_, err = resolveSpec(cellSpec(bad.Config, bad.Workload))
		return nil, err
	}
	for i, cell := range cells {
		add(cellSpec(i/len(rows), i%len(rows)), cell)
	}
	return ex, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
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
	resp, err := s.submitSweep(ex, clientKey(r), traceIDFrom(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweepGet serves the sweep resource: per-cell job snapshots,
// state counts, and — once an axis-form sweep completes — the merged
// speedup table. ?wait= long-polls for the terminal transition.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(longPollHeader, "supported")
	d, he := parseWait(r)
	if he != nil {
		writeError(w, he)
		return
	}
	id := r.PathValue("id")
	sw, err := longPoll(s, r.Context(), d, func() (api.Sweep, bool, error) {
		rec, ok := s.sweeps[id]
		if !ok {
			return api.Sweep{}, false, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown sweep %q", id)}
		}
		sw := rec.view(s.jobs)
		return sw, sw.State.Terminal(), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sw)
}

// handleBenchmarks and handleConfigs serve static catalog data, the same
// bytes whichever entry point a client asks.
func handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.BenchmarkList{Benchmarks: trace.Names()})
}

// handleConfigs serves every preset as its full canonical Config value
// (sorted by name) so clients can author inline configs and patches
// without guessing field names.
func handleConfigs(w http.ResponseWriter, _ *http.Request) {
	presets := config.Presets()
	list := api.ConfigList{Configs: make([]config.Config, 0, len(presets))}
	for _, name := range config.Names() {
		list.Configs = append(list.Configs, presets[name].Canonical())
	}
	writeJSON(w, http.StatusOK, list)
}
