// Package client is the typed Go client for gpusimd, the simulation
// daemon (internal/server). It speaks the versioned wire types of
// internal/api, re-exported here as aliases so callers outside the module
// can name them.
//
//	c := client.New("http://127.0.0.1:8372")
//	job, err := c.Submit(ctx, client.JobSpec{Config: "baseline", Bench: "mm"})
//	job, err = c.Wait(ctx, job.ID, 200*time.Millisecond)
//	fmt.Println(job.Metrics.IPC)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/obsv"
	"gpumembw/internal/trace"
)

// Wire types, aliased from the API package.
type (
	// Job is the server's view of one submitted simulation cell.
	Job = api.Job
	// JobSpec names one cell: a preset name, inline config or config
	// patch, plus a workload (benchmark name or inline WorkloadSpec).
	JobSpec = api.JobSpec
	// JobState is the job lifecycle state.
	JobState = api.JobState
	// SweepRequest is a config×workload cross product (or explicit cell
	// list) to submit.
	SweepRequest = api.SweepRequest
	// SweepResponse reports the sweep expansion and its deduplication.
	SweepResponse = api.SweepResponse
	// Sweep is the sweep resource: per-cell jobs, state counts, and the
	// merged speedup table once complete.
	Sweep = api.Sweep
	// SweepState is the sweep lifecycle state.
	SweepState = api.SweepState
	// JobList is one page of a job listing.
	JobList = api.JobList
	// Stats is the daemon's scheduler counters and queue gauges.
	Stats = api.Stats
	// ClusterStatus is a coordinator's worker table.
	ClusterStatus = api.ClusterStatus
	// WorkerStatus is one worker's health as the coordinator sees it.
	WorkerStatus = api.WorkerStatus
	// WorkloadSpec is an inline synthetic-kernel spec for
	// JobSpec.InlineSpec / SweepRequest.InlineSpecs.
	WorkloadSpec = trace.Spec
	// HardwareConfig is a full inline hardware configuration for
	// JobSpec.InlineConfig / SweepRequest.InlineConfigs.
	HardwareConfig = config.Config
	// ConfigPatch is a sparse mitigation-knob overlay on a named preset
	// for JobSpec.ConfigPatch / SweepRequest.ConfigPatches.
	ConfigPatch = config.Patch
	// JobProfile is GET /v1/jobs/{id}/profile: the hierarchy bottleneck
	// profile of a Profile=true run.
	JobProfile = api.JobProfile
	// Profile is the windowed per-level time series plus bottleneck
	// verdict inside a JobProfile.
	Profile = obsv.Profile
	// Trace is GET /v1/jobs/{id}/trace: the job's lifecycle span timeline.
	Trace = api.Trace
	// Span is one lifecycle span inside a Trace.
	Span = api.Span
)

// TraceHeader is the X-Trace-Id request/response header the daemon and
// coordinator use to correlate a request with their structured logs.
const TraceHeader = api.TraceHeader

// Job lifecycle states.
const (
	JobQueued   = api.JobQueued
	JobRunning  = api.JobRunning
	JobDone     = api.JobDone
	JobFailed   = api.JobFailed
	JobCanceled = api.JobCanceled
)

// Sweep lifecycle states.
const (
	SweepRunning = api.SweepRunning
	SweepDone    = api.SweepDone
	SweepFailed  = api.SweepFailed
)

// Machine-readable error codes carried by APIError.Code.
const (
	CodeInvalidArgument   = api.CodeInvalidArgument
	CodeNotFound          = api.CodeNotFound
	CodeConflict          = api.CodeConflict
	CodeResourceExhausted = api.CodeResourceExhausted
	CodeUnavailable       = api.CodeUnavailable
	CodeInternal          = api.CodeInternal
)

// APIError is a non-2xx daemon response, decoded from the uniform
// api.Error envelope. Code is the machine-readable error code
// (CodeNotFound, CodeResourceExhausted, ...); for a body that is not the
// envelope (a proxy's plain text) it is derived from the HTTP status. RetryAfter carries the
// retry hint of a 429/503 (envelope field or Retry-After header), when
// the daemon sent one; zero otherwise.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gpusimd: %s (HTTP %d, %s)", e.Message, e.StatusCode, e.Code)
}

// Client talks to one gpusimd daemon. The zero value is not usable; use New.
type Client struct {
	base string
	hc   *http.Client
	hdr  http.Header // sent on every request
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithHeader sends key: value on every request the client makes — an
// X-API-Key naming the client to the daemon's rate limit and quota, or a
// caller-chosen TraceHeader that the jobs it submits (and the daemon's
// structured logs) adopt instead of a server-minted one.
func WithHeader(key, value string) Option {
	return func(c *Client) { c.hdr.Set(key, value) }
}

// New builds a client for the daemon at baseURL, e.g.
// "http://127.0.0.1:8372".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient, hdr: http.Header{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// maxBody bounds a decoded 2xx body, so a daemon (or anything answering
// in its place) cannot make the client read without end.
const maxBody = 64 << 20

// do issues one request; in (if non-nil) is sent as JSON, out (if
// non-nil) receives the decoded 2xx body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range c.hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(out)
}

// decodeError turns a non-2xx response into an *APIError. It decodes
// the uniform envelope {code, detail, retryAfter}; any other body (a
// foreign proxy's plain text) degrades to a message with a
// status-derived code.
func decodeError(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var apiErr api.Error
	if json.Unmarshal(data, &apiErr) == nil && apiErr.Detail != "" {
		e.Code = apiErr.Code
		e.Message = apiErr.Detail
		e.RetryAfter = time.Duration(apiErr.RetryAfter) * time.Second
	} else {
		e.Message = strings.TrimSpace(string(data))
	}
	if e.Code == "" {
		e.Code = api.CodeForStatus(resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// BaseURL returns the daemon address the client talks to (no trailing
// slash), e.g. for scraping its /metrics endpoint directly.
func (c *Client) BaseURL() string { return c.base }

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	var h api.Health
	return c.do(ctx, http.MethodGet, "/healthz", nil, &h)
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit enqueues one cell (POST /v1/jobs). Submitting a cell the daemon
// already knows returns the existing job, possibly already done.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Profile fetches a finished Profile=true job's hierarchy bottleneck
// profile (GET /v1/jobs/{id}/profile). Jobs that are not yet done — or
// that ran unprofiled — answer 404 not_found.
func (c *Client) Profile(ctx context.Context, id string) (*JobProfile, error) {
	var p JobProfile
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/profile", nil, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// Trace fetches a job's lifecycle span timeline (GET /v1/jobs/{id}/trace).
// Unlike Profile it exists from submission on; against a coordinator the
// running span names the worker the job ran on.
func (c *Client) Trace(ctx context.Context, id string) (*Trace, error) {
	var t Trace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// Job polls one job (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists every job (GET /v1/jobs), sorted by submission time.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	list, err := c.ListJobs(ctx, ListOptions{})
	if err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// ListOptions filter and page a job listing.
type ListOptions struct {
	// State keeps only jobs in that state; "" keeps all.
	State JobState
	// Limit caps the page size; 0 means unbounded (one page holds all).
	Limit int
	// PageToken resumes a listing after a previous page's NextPageToken.
	PageToken string
}

// ListJobs fetches one page of GET /v1/jobs. Jobs are sorted by
// (submission time, ID) — a stable total order — and a non-empty
// NextPageToken on the result resumes the listing where the page ended.
func (c *Client) ListJobs(ctx context.Context, opts ListOptions) (*JobList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.PageToken != "" {
		q.Set("page_token", opts.PageToken)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list JobList
	if err := c.do(ctx, http.MethodGet, path, nil, &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Cancel cancels a queued job (DELETE /v1/jobs/{id}).
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Sweep submits a config×workload cross product — or an explicit cell
// list — as one sweep (POST /v1/sweeps). The response carries the
// content-addressed sweep ID; GetSweep and WaitSweep track it.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	var resp SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetSweep polls one sweep resource (GET /v1/sweeps/{id}).
func (c *Client) GetSweep(ctx context.Context, id string) (*Sweep, error) {
	var sw Sweep
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+url.PathEscape(id), nil, &sw); err != nil {
		return nil, err
	}
	return &sw, nil
}

// Benchmarks lists benchmark names in Table II order (GET /v1/benchmarks).
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var list api.BenchmarkList
	if err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, &list); err != nil {
		return nil, err
	}
	return list.Benchmarks, nil
}

// Configs lists every preset as its full canonical configuration,
// sorted by name (GET /v1/configs) — the starting point for authoring
// inline configs and patches against a remote daemon.
func (c *Client) Configs(ctx context.Context) ([]HardwareConfig, error) {
	var list api.ConfigList
	if err := c.do(ctx, http.MethodGet, "/v1/configs", nil, &list); err != nil {
		return nil, err
	}
	return list.Configs, nil
}

// ConfigNames lists the preset names accepted by JobSpec.Config, sorted.
func (c *Client) ConfigNames(ctx context.Context) ([]string, error) {
	configs, err := c.Configs(ctx)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(configs))
	for i, cfg := range configs {
		names[i] = cfg.Name
	}
	return names, nil
}

// waitRound is the server-side deadline a Wait/WaitSweep long-poll
// round asks for; the server clamps longer asks, so staying at its cap
// wastes nothing.
const waitRound = 30 * time.Second

// jitter spreads d over [d/2, 3d/2) so a fleet of clients that lost
// their long-poll rounds at once (a daemon drain, a proxy restart) does
// not re-poll in lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// Wait blocks until the job reaches a terminal state or ctx is done.
//
// It parks on GET /v1/jobs/{id}?wait= rounds — no fixed-interval polling,
// near-zero request overhead, and an immediate return on the terminal
// transition. A round the daemon answers early without a terminal state
// (graceful drain does this, and so does a daemon or proxy that ignores
// ?wait=) is followed by a jittered pause of ~poll (default 200ms when
// <= 0), so a restarting daemon is not stampeded and one that cannot
// long-poll is polled at that interval.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	return waitResource[Job](ctx, c, "/v1/jobs/"+url.PathEscape(id), poll,
		func(j *Job) bool { return j.State.Terminal() })
}

// WaitSweep is Wait's sweep twin: it blocks on GET /v1/sweeps/{id} until
// the sweep is terminal (every cell done, or any failed/canceled) or ctx
// is done, with the same long-poll rounds and jittered pauses.
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (*Sweep, error) {
	return waitResource[Sweep](ctx, c, "/v1/sweeps/"+url.PathEscape(id), poll,
		func(sw *Sweep) bool { return sw.State.Terminal() })
}

// waitResource is the one long-poll loop, behind Wait, WaitSweep and
// WaitExploration.
func waitResource[T any](ctx context.Context, c *Client, path string, poll time.Duration, terminal func(*T) bool) (*T, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		start := time.Now()
		var v T
		if err := c.do(ctx, http.MethodGet, path+"?wait="+waitRound.String(), nil, &v); err != nil {
			return nil, err
		}
		if terminal(&v) {
			return &v, nil
		}
		if time.Since(start) < waitRound/2 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(jitter(poll)):
			}
		}
	}
}

// Cluster fetches a coordinator's worker table (GET /v1/cluster).
// Single daemons answer 404 not_found.
func (c *Client) Cluster(ctx context.Context) (*ClusterStatus, error) {
	var cs ClusterStatus
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// Drain marks a coordinator's worker as draining (true) or serving
// (false): a draining worker keeps answering reads but receives no new
// placements, and its unfinished jobs move to the remaining workers
// (POST /v1/cluster/drain).
func (c *Client) Drain(ctx context.Context, workerAddr string, drain bool) (*ClusterStatus, error) {
	var cs ClusterStatus
	if err := c.do(ctx, http.MethodPost, "/v1/cluster/drain", api.DrainRequest{Addr: workerAddr, Drain: drain}, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// Run submits one cell and waits for its terminal state — the blocking
// convenience around Submit + Wait.
func (c *Client) Run(ctx context.Context, spec JobSpec, poll time.Duration) (*Job, error) {
	j, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if j.State.Terminal() {
		return j, nil
	}
	return c.Wait(ctx, j.ID, poll)
}
