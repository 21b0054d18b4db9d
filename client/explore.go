package client

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
)

// Design-space exploration wire types, aliased from the API package.
type (
	// ExploreRequest describes a search over the mitigation knob space
	// (POST /v1/explore): workloads, a base preset, an objective, and —
	// optionally — a custom knob lattice (default: the Table III ladder).
	ExploreRequest = api.ExploreRequest
	// ExploreObjective is the search goal: target-speedup ≥ X minimizing
	// area, or area-budget ≤ Y mm² maximizing speedup.
	ExploreObjective = api.ExploreObjective
	// ExploreKnob is one custom lattice axis: a dotted knob path and its
	// candidate values.
	ExploreKnob = api.ExploreKnob
	// Exploration is the exploration resource: per-round progress while
	// running; Pareto frontier and recommended point once done.
	Exploration = api.Exploration
	// ExplorationState is the exploration lifecycle state.
	ExplorationState = api.ExplorationState
	// ExplorePoint is one frontier point: its knob assignments, measured
	// speedup and area cost.
	ExplorePoint = api.ExplorePoint
	// ExploreRound is one completed search round's summary.
	ExploreRound = api.ExploreRound
	// Knob is one entry of the knob-space model (GET /v1/knobs): a dotted
	// path, its type, bounds and baseline value.
	Knob = config.Knob
)

// Exploration lifecycle states.
const (
	ExplorationRunning = api.ExplorationRunning
	ExplorationDone    = api.ExplorationDone
	ExplorationFailed  = api.ExplorationFailed
)

// Explore starts (or joins) a design-space exploration (POST
// /v1/explore). Explorations are content-addressed by their canonical
// request: re-posting the same search — however spelled — returns the
// same resource, already finished if it ran before.
func (c *Client) Explore(ctx context.Context, req ExploreRequest) (*Exploration, error) {
	var ex Exploration
	if err := c.do(ctx, http.MethodPost, "/v1/explore", req, &ex); err != nil {
		return nil, err
	}
	return &ex, nil
}

// GetExploration polls one exploration resource (GET /v1/explorations/{id}).
func (c *Client) GetExploration(ctx context.Context, id string) (*Exploration, error) {
	var ex Exploration
	if err := c.do(ctx, http.MethodGet, "/v1/explorations/"+url.PathEscape(id), nil, &ex); err != nil {
		return nil, err
	}
	return &ex, nil
}

// WaitExploration blocks until the exploration is terminal or ctx is
// done, with the same long-poll rounds and jittered pauses as Wait and
// WaitSweep.
func (c *Client) WaitExploration(ctx context.Context, id string, poll time.Duration) (*Exploration, error) {
	return waitResource[Exploration](ctx, c, "/v1/explorations/"+url.PathEscape(id), poll,
		func(ex *Exploration) bool { return ex.State.Terminal() })
}

// Knobs fetches the mitigation knob-space model (GET /v1/knobs): every
// dotted Set path with its type, validation bounds and baseline value.
func (c *Client) Knobs(ctx context.Context) ([]Knob, error) {
	var list api.KnobList
	if err := c.do(ctx, http.MethodGet, "/v1/knobs", nil, &list); err != nil {
		return nil, err
	}
	return list.Knobs, nil
}
