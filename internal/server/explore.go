package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/explore"
)

// exploreRec is the server-side exploration resource: the compiled plan
// plus the driver's published progress. Mutable fields are guarded by
// Server.mu.
//
// Explorations are content-addressed by their canonical request, so a
// re-POST of the same search — however spelled — is the same resource:
// while it runs the POST joins it, and once it is done the POST returns
// the finished result without simulating anything.
//
// With a cache dir every accepted request is journaled under it as
// explore/<id>.json and resubmitted on startup, so a restart resumes every
// exploration: the driver re-runs the deterministic search and the disk
// cache answers every already-probed cell, which makes resumption cheap
// and the final resource byte-identical to the uninterrupted run.
type exploreRec struct {
	plan   *explore.Plan
	state  api.ExplorationState
	status explore.Status
	result *explore.Result
	errMsg string
}

// view assembles the wire resource; callers hold Server.mu.
func (rec *exploreRec) view(id string) api.Exploration {
	return rec.plan.Resource(id, rec.state, rec.status, rec.result, rec.errMsg)
}

// submitExploration compiles a request and starts (or joins) its
// exploration. A new exploration is admitted like a job: refused while
// draining, and its driver joins s.wg under s.mu, so it cannot race
// Shutdown's wait. created reports whether this call started the driver.
func (s *Server) submitExploration(req api.ExploreRequest) (api.Exploration, bool, error) {
	plan, err := explore.Compile(req)
	if err != nil {
		return api.Exploration{}, false, errBadRequest("%v", err)
	}
	id := plan.ID()
	s.mu.Lock()
	rec, known := s.explorations[id]
	if !known {
		if s.draining {
			s.mu.Unlock()
			return api.Exploration{}, false, errDraining
		}
		rec = &exploreRec{plan: plan, state: api.ExplorationRunning}
		s.explorations[id] = rec
		s.wg.Add(1)
		go s.runExploration(id, rec)
	}
	v := rec.view(id)
	s.mu.Unlock()
	if !known {
		s.journal(id, plan.Request)
		s.log.Info("exploration started", "exploration", id,
			"strategy", plan.Request.Strategy, "base", plan.Space.BaseName,
			"gridSize", plan.Space.GridSize(), "workloads", len(plan.Workloads))
	}
	return v, !known, nil
}

// runExploration drives one exploration to a terminal state, waking the
// long-polls on every round's progress and on the end. Shutdown aborts
// it through s.ctx; its journal survives for the next start to resume.
func (s *Server) runExploration(id string, rec *exploreRec) {
	defer s.wg.Done()
	res, err := explore.Run(s.ctx, rec.plan, s.evalProbes, func(st explore.Status) {
		s.mu.Lock()
		rec.status = st
		s.broadcastLocked()
		s.mu.Unlock()
	})
	s.mu.Lock()
	if err != nil {
		rec.state = api.ExplorationFailed
		rec.errMsg = err.Error()
	} else {
		rec.state = api.ExplorationDone
		rec.result = res
	}
	s.broadcastLocked()
	s.mu.Unlock()
	if err != nil {
		s.log.Warn("exploration failed", "exploration", id, "err", err)
		return
	}
	s.log.Info("exploration done", "exploration", id,
		"probes", res.Probes, "rounds", len(res.Rounds), "feasible", res.Feasible,
		"simulated", res.Tiers.Simulated, "memo", res.Tiers.Memo, "disk", res.Tiers.Disk)
}

// evalProbes scores one round of probe cells on the scheduler, sharing
// every cache tier with the job API, as many at once as the server has
// workers — at a coordinator, a whole round at once. A probe is an
// ordinary cell run: simulated at a daemon, or on a coordinator's workers.
func (s *Server) evalProbes(ctx context.Context, cells []exp.Job) ([]exp.RunResult, error) {
	return exp.RunAll(ctx, s.workers, cells, func(ctx context.Context, cell exp.Job) (exp.RunResult, error) {
		return s.sched.RunJobEx(ctx, cell, false)
	})
}

// journal persists one accepted request so a restarted server resumes
// the exploration. Failures are logged, not fatal: the exploration still
// runs, it just will not survive a restart.
func (s *Server) journal(id string, req api.ExploreRequest) {
	if s.exploreDir == "" {
		return
	}
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		s.log.Warn("exploration journal marshal", "exploration", id, "err", err)
		return
	}
	path := filepath.Join(s.exploreDir, id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		s.log.Warn("exploration journal write", "exploration", id, "err", err)
	}
}

// resumeExplorations re-submits every journaled request. Completed
// explorations replay from the disk cache (simulating nothing) and land on
// the byte-identical resource; interrupted ones resume from where the
// cache runs dry.
func (s *Server) resumeExplorations() {
	if s.exploreDir == "" {
		return
	}
	entries, err := os.ReadDir(s.exploreDir)
	if err != nil {
		s.log.Warn("exploration journal scan", "dir", s.exploreDir, "err", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.exploreDir, e.Name()))
		if err != nil {
			s.log.Warn("exploration journal read", "file", e.Name(), "err", err)
			continue
		}
		var req api.ExploreRequest
		if err := json.Unmarshal(data, &req); err != nil {
			s.log.Warn("exploration journal decode", "file", e.Name(), "err", err)
			continue
		}
		if _, _, err := s.submitExploration(req); err != nil {
			s.log.Warn("exploration journal resume", "file", e.Name(), "err", err)
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
	ex, created, err := s.submitExploration(req)
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
	ex, err := longPoll(s, r.Context(), d, func() (api.Exploration, bool, error) {
		rec, ok := s.explorations[id]
		if !ok {
			return api.Exploration{}, false, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("server: unknown exploration %q", id)}
		}
		v := rec.view(id)
		return v, v.State.Terminal(), nil
	})
	if err != nil {
		writeError(w, err)
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
