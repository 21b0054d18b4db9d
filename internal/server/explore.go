package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/explore"
)

// exploreRec is the server-side exploration resource: the compiled plan
// plus the driver's published progress. Mutable fields are guarded by
// exploreHub.mu.
type exploreRec struct {
	plan   *explore.Plan
	state  api.ExplorationState
	status explore.Status
	result *explore.Result
	errMsg string
}

// exploreHub owns a server's exploration resources. Its EvalBatch scores
// probe cells on the server's scheduler, so a probe is an ordinary cell
// run — simulated at a daemon, or on a coordinator's workers.
//
// Explorations are content-addressed by their canonical request, so a
// re-POST of the same search — however spelled — is the same resource:
// while it runs the POST joins it, and once it is done the POST returns
// the finished result without simulating anything.
//
// When dir is non-empty every accepted request is journaled there as
// <id>.json and reloaded on startup, so a daemon restart resumes every
// exploration: the driver re-runs the deterministic search and the disk
// cache answers every already-probed cell, which makes resumption cheap
// and the final resource byte-identical to the uninterrupted run.
type exploreHub struct {
	eval explore.EvalBatch
	dir  string
	log  *slog.Logger

	mu     sync.Mutex
	recs   map[string]*exploreRec
	waitCh chan struct{} // closed+replaced on every progress or terminal transition

	ctx    context.Context // canceled on shutdown; aborts running drivers
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newExploreHub builds a hub. dir == "" disables journaling (a server
// without a cache dir).
func newExploreHub(dir string, eval explore.EvalBatch, log *slog.Logger) (*exploreHub, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: explore journal dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &exploreHub{
		eval:   eval,
		dir:    dir,
		log:    log,
		recs:   make(map[string]*exploreRec),
		waitCh: make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// submit compiles a request and starts (or joins) its exploration.
// created reports whether this call started the driver.
func (h *exploreHub) submit(req api.ExploreRequest) (api.Exploration, bool, error) {
	plan, err := explore.Compile(req)
	if err != nil {
		return api.Exploration{}, false, errBadRequest("%v", err)
	}
	id := plan.ID()
	h.mu.Lock()
	if rec, ok := h.recs[id]; ok {
		v := rec.view(id)
		h.mu.Unlock()
		return v, false, nil
	}
	rec := &exploreRec{plan: plan, state: api.ExplorationRunning}
	h.recs[id] = rec
	v := rec.view(id)
	h.mu.Unlock()

	h.journal(id, plan.Request)
	h.wg.Add(1)
	go h.run(id, rec)
	h.log.Info("exploration started", "exploration", id,
		"strategy", plan.Strategy.Name(), "base", plan.Space.BaseName,
		"gridSize", plan.Space.GridSize(), "workloads", len(plan.Workloads))
	return v, true, nil
}

// run drives one exploration to a terminal state, publishing per-round
// progress to long-poll waiters along the way.
func (h *exploreHub) run(id string, rec *exploreRec) {
	defer h.wg.Done()
	res, err := explore.Run(h.ctx, rec.plan, h.eval, func(st explore.Status) {
		h.mu.Lock()
		rec.status = st
		h.broadcastLocked()
		h.mu.Unlock()
	})
	h.mu.Lock()
	if err != nil {
		rec.state = api.ExplorationFailed
		rec.errMsg = err.Error()
	} else {
		rec.state = api.ExplorationDone
		rec.result = res
	}
	h.broadcastLocked()
	h.mu.Unlock()
	if err != nil {
		h.log.Warn("exploration failed", "exploration", id, "err", err)
		return
	}
	h.log.Info("exploration done", "exploration", id,
		"probes", res.Probes, "rounds", len(res.Rounds), "feasible", res.Feasible,
		"simulated", res.Tiers.Simulated, "memo", res.Tiers.Memo, "disk", res.Tiers.Disk)
}

func (h *exploreHub) broadcastLocked() {
	close(h.waitCh)
	h.waitCh = make(chan struct{})
}

// view assembles the wire resource; callers hold exploreHub.mu.
func (rec *exploreRec) view(id string) api.Exploration {
	return rec.plan.Resource(id, rec.state, rec.status, rec.result, rec.errMsg)
}

// wait blocks until the exploration is terminal, ctx is done, the hub
// shuts down, or d elapses, then returns the current snapshot. ok is
// false only when the id is unknown.
func (h *exploreHub) wait(ctx context.Context, id string, d time.Duration) (api.Exploration, bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(h.ctx, cancel)() // a hub shutdown ends the wait like a departed client
	known := true
	v := await(ctx, d, func() (api.Exploration, <-chan struct{}, bool) {
		h.mu.Lock()
		defer h.mu.Unlock()
		rec, ok := h.recs[id]
		if !ok {
			known = false
			return api.Exploration{}, nil, true
		}
		v := rec.view(id)
		return v, h.waitCh, v.State.Terminal()
	})
	return v, known
}

// journal persists one accepted request so a restarted daemon resumes
// the exploration. Failures are logged, not fatal: the exploration still
// runs, it just will not survive a restart.
func (h *exploreHub) journal(id string, req api.ExploreRequest) {
	if h.dir == "" {
		return
	}
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		h.log.Warn("exploration journal marshal", "exploration", id, "err", err)
		return
	}
	path := filepath.Join(h.dir, id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		h.log.Warn("exploration journal write", "exploration", id, "err", err)
	}
}

// reload re-submits every journaled request. Completed explorations
// replay from the disk cache (simulating nothing) and land on the
// byte-identical resource; interrupted ones resume from where the cache
// runs dry.
func (h *exploreHub) reload() {
	if h.dir == "" {
		return
	}
	entries, err := os.ReadDir(h.dir)
	if err != nil {
		h.log.Warn("exploration journal scan", "dir", h.dir, "err", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(h.dir, e.Name()))
		if err != nil {
			h.log.Warn("exploration journal read", "file", e.Name(), "err", err)
			continue
		}
		var req api.ExploreRequest
		if err := json.Unmarshal(data, &req); err != nil {
			h.log.Warn("exploration journal decode", "file", e.Name(), "err", err)
			continue
		}
		if _, _, err := h.submit(req); err != nil {
			h.log.Warn("exploration journal resume", "file", e.Name(), "err", err)
		}
	}
}

// ---- HTTP handlers ----

// handleExploreSubmit serves POST /v1/explore: 201 when this request
// started the search, 200 when it joined (or re-found) an existing one.
func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.ExploreRequest
	if err := decodeBody(r, maxJobBody, &req); err != nil {
		writeError(w, errBadRequest("decode explore request: %v", err))
		return
	}
	ex, created, err := s.explorer.submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, ex)
}

// handleExploreGet serves GET /v1/explorations/{id}; ?wait= long-polls
// for the terminal transition (progress updates wake waiters early only
// to re-check, matching the job and sweep wait semantics).
func (s *Server) handleExploreGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(longPollHeader, "supported")
	d, he := parseWait(r)
	if he != nil {
		writeError(w, he)
		return
	}
	id := r.PathValue("id")
	ex, ok := s.explorer.wait(r.Context(), id, d)
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown exploration %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// handleKnobs serves GET /v1/knobs: the full dotted-path knob-space
// model with types, bounds and baseline values — the catalog explore
// requests draw their custom axes from.
func handleKnobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.KnobList{Knobs: config.Knobs()})
}
