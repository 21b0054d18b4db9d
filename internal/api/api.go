// Package api defines the versioned wire types of the gpusimd HTTP API,
// shared by the server (internal/server) and the Go client (client).
//
// All routes live under the "/v1" prefix (plus the unversioned GET
// /healthz). A job is one (configuration, workload) simulation cell. Both
// halves are first-class values: the configuration is a preset name, a
// full inline config.Config, or a mitigation-knob config.Patch on a
// named preset, and the workload is a Table II benchmark name or a full
// inline trace.Spec. The job ID is content-addressed — a hash of the
// configuration's canonical identity (config.Config.Identity: name
// excluded, mode-dead fields zeroed, preset names and patches resolved)
// and the workload spec's canonical identity (labels excluded, benchmark
// names resolved to their registered specs) — so resubmitting a cell,
// submitting it under a different label with identical parameters, or
// spelling a preset config or benchmark as an equivalent inline value
// all land on the same job. Cancellation (DELETE /v1/jobs/{id})
// therefore affects every client that submitted that cell.
//
// Every non-2xx response carries one uniform Error envelope —
// {code, detail, retryAfter} — whatever the route: 400/invalid_argument
// for malformed specs (the detail carries config.Validate /
// trace.Spec.Validate / patch-application text and, for unknown names,
// the list of valid ones), 404/not_found for unknown job or sweep IDs,
// 409/conflict for canceling a job that already finished,
// 429/resource_exhausted with a Retry-After header (mirrored in the
// body's retryAfter field) when the per-client rate limit or inflight
// quota rejects the request, and 503/unavailable when the bounded queue
// is full or the daemon is draining. A coordinator answers with its own
// admission — a worker's refusal delays a run, it is never relayed — so
// clients see the same envelope whether they talk to one daemon or a
// fleet.
//
// Operational visibility rides on GET /v1/stats (this package's Stats)
// and GET /metrics (the same counters in Prometheus text form); the two
// reconcile exactly whenever the daemon is quiescent.
package api

import (
	"time"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/obsv"
	"gpumembw/internal/trace"
)

// Version is the API version segment all job routes are mounted under.
const Version = "v1"

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// JobQueued means the job is waiting in the bounded queue.
	JobQueued JobState = "queued"
	// JobRunning means a worker picked the job up (or is waiting on the
	// same cell already in flight for another job).
	JobRunning JobState = "running"
	// JobDone means the simulation finished and Metrics is populated.
	JobDone JobState = "done"
	// JobFailed means the simulation returned an error (see Job.Error).
	// The simulator is deterministic and the scheduler memoizes failures,
	// so resubmitting the spec returns the same failed job.
	JobFailed JobState = "failed"
	// JobCanceled means the job was canceled while queued or running
	// (DELETE /v1/jobs/{id}). A running job's simulation cannot be
	// preempted mid-cell: the worker finishes it and its result still
	// lands in the daemon's caches, but the job record stays canceled —
	// consistently in GET /v1/jobs/{id} and /v1/stats alike.
	// Resubmitting the same spec re-enqueues it (cheaply, if the cell
	// already simulated).
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final — polling can stop.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec names one simulation cell. Exactly one of Config (a preset
// name, see GET /v1/configs), InlineConfig (a full config.Config value,
// validated server-side with config.Validate) or ConfigPatch (a sparse
// mitigation-knob overlay on a named preset, e.g.
// {"base":"baseline","L1":{"MSHREntries":128}}) must be set, and
// likewise exactly one of Bench (a Table II benchmark name, see GET
// /v1/benchmarks) or InlineSpec (a full trace.Spec value, validated
// server-side with trace.Spec.Validate; an empty Name defaults to
// "custom"). An inline config or patch that resolves to a preset's
// canonical identity, or an inline spec equal to a registered benchmark
// (labels aside), lands on the preset's cell.
type JobSpec struct {
	Config       string         `json:"config,omitempty"`
	InlineConfig *config.Config `json:"inlineConfig,omitempty"`
	ConfigPatch  *config.Patch  `json:"configPatch,omitempty"`
	Bench        string         `json:"bench,omitempty"`
	InlineSpec   *trace.Spec    `json:"inlineSpec,omitempty"`

	// Profile requests the in-simulation bottleneck profiler for this
	// job: when true, GET /v1/jobs/{id}/profile serves the windowed
	// per-level time series and verdict once the job is done. Profiling
	// never changes cell identity or metrics — a profiled and an
	// unprofiled submission of the same cell are the same job.
	Profile bool `json:"profile,omitempty"`
}

// Job is the server's view of one submitted cell, returned by POST
// /v1/jobs, GET /v1/jobs/{id} and DELETE /v1/jobs/{id}.
type Job struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`

	// Metrics is set once State == JobDone. It is byte-identical (as
	// canonical JSON) to what `gpusim -json` prints for the same cell.
	Metrics *core.Metrics `json:"metrics,omitempty"`
	// Error is set once State == JobFailed.
	Error string `json:"error,omitempty"`

	// Tier attributes a done job to the cache tier that satisfied it:
	// "simulated", "memo" or "disk" (exp.TierSimulated & co). Consumers
	// like the design-space explorer use it to report how much of a run
	// was actually simulated versus replayed.
	Tier string `json:"tier,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	// TraceID is the request-scoped trace identifier assigned at the
	// job's first entry point (the client's X-Trace-Id header, or one
	// generated server-side) and carried to the worker's copy of the job
	// by a coordinator's run. GET /v1/jobs/{id}/trace
	// returns the span timeline recorded under it.
	TraceID string `json:"traceId,omitempty"`
}

// TraceHeader is the wire header carrying the request-scoped trace ID.
// The first entry point (daemon or coordinator) generates one when the
// client did not send it, echoes it on every response, and a
// coordinator's run sends it to the worker with the cell.
const TraceHeader = "X-Trace-Id"

// Span is one step of a job's lifecycle timeline: queued, running, and
// the terminal state, each with wall-clock bounds and attributes
// (cache-tier attribution, at a coordinator the worker's address, error
// strings).
// End is nil while the span is still open.
type Span struct {
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	End   *time.Time        `json:"end,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one job's span timeline, returned by GET /v1/jobs/{id}/trace.
// Spans are in start order. A coordinator's timeline is its own; the
// worker keeps its copy of the job's under the same trace ID.
type Trace struct {
	JobID   string `json:"jobId"`
	TraceID string `json:"traceId,omitempty"`
	Spans   []Span `json:"spans"`
}

// JobProfile is the payload of GET /v1/jobs/{id}/profile: the in-sim
// bottleneck profiler's windowed time series and per-level verdict for
// one completed Profile=true job. Profiles are cache-tier artifacts — a
// job served from the disk cache returns the cached profile.
type JobProfile struct {
	JobID   string        `json:"jobId"`
	Config  string        `json:"config,omitempty"`
	Bench   string        `json:"bench,omitempty"`
	Profile *obsv.Profile `json:"profile"`
}

// JobList is the response of GET /v1/jobs. Jobs are sorted by
// (SubmittedAt, ID) — a stable total order, since both are fixed at
// submission — optionally filtered by ?state= and bounded by ?limit=.
// When a limit cuts the listing short, NextPageToken is the opaque
// cursor for the next page (?page_token=); walking pages until the
// token is empty yields every matching job exactly once, even while
// new jobs are being submitted (new jobs sort after the cursor).
type JobList struct {
	Jobs          []Job  `json:"jobs"`
	NextPageToken string `json:"nextPageToken,omitempty"`
}

// SweepRequest (POST /v1/sweeps) expands the cross product of its
// configurations (Configs ∪ InlineConfigs ∪ ConfigPatches) and workloads
// (Benches ∪ InlineSpecs) into jobs, so one request can sweep hardware
// axes — the paper's Table III mitigation ladder as a list of patches
// against any workload — exactly like workload axes. When the axis
// forms are used, at least one configuration and one workload are
// required. Cells lists explicit cells directly and is mutually
// exclusive with the axes. Cells that collapse to the same
// content-addressed ID — within the sweep or against jobs already known
// to the daemon — are submitted once, and admission is all-or-nothing:
// the whole sweep enqueues or the whole sweep is rejected.
type SweepRequest struct {
	Configs       []string        `json:"configs,omitempty"`
	InlineConfigs []config.Config `json:"inlineConfigs,omitempty"`
	ConfigPatches []config.Patch  `json:"configPatches,omitempty"`
	Benches       []string        `json:"benches,omitempty"`
	InlineSpecs   []trace.Spec    `json:"inlineSpecs,omitempty"`
	Cells         []JobSpec       `json:"cells,omitempty"`
}

// SweepResponse reports the expansion: ID is the sweep's
// content-addressed resource ID (poll it at GET /v1/sweeps/{id}),
// Requested cells were asked for, Jobs holds the unique cells (existing
// jobs are returned as-is, completed ones with their cached result), and
// Deduped = Requested - len(Jobs).
type SweepResponse struct {
	ID        string `json:"id"`
	Requested int    `json:"requested"`
	Deduped   int    `json:"deduped"`
	Jobs      []Job  `json:"jobs"`
}

// SweepState is the aggregate lifecycle state of a sweep resource.
type SweepState string

const (
	// SweepRunning means at least one of the sweep's cells is not yet
	// terminal.
	SweepRunning SweepState = "running"
	// SweepDone means every cell finished successfully.
	SweepDone SweepState = "done"
	// SweepFailed means every cell is terminal and at least one failed
	// or was canceled (Counts breaks the outcome down by state).
	SweepFailed SweepState = "failed"
)

// Terminal reports whether the sweep state is final — waiting can stop.
func (s SweepState) Terminal() bool { return s == SweepDone || s == SweepFailed }

// SweepSpeedups is the merged speedup grid of a completed sweep whose
// cells were submitted through the axis forms: Cells[w][c] is the
// wall-clock speedup of Workloads[w] on Configs[c] relative to the
// sweep's first configuration column — the same orientation and baseline
// convention as exp.SweepResult.Speedups(0).
type SweepSpeedups struct {
	Configs   []string    `json:"configs"`
	Workloads []string    `json:"workloads"`
	Cells     [][]float64 `json:"cells"`

	// AreaMM2 and OverheadFrac are the per-configuration-column area
	// estimates from internal/area.Compare, measured against the sweep's
	// first configuration column like the speedups (so column 0 reads 0) —
	// the denominator that turns a speedup column into a
	// cost-effectiveness statement. Parallel to Configs.
	AreaMM2      []float64 `json:"areaMM2,omitempty"`
	OverheadFrac []float64 `json:"overheadFrac,omitempty"`
}

// Sweep is the sweep resource returned by GET /v1/sweeps/{id}: the
// aggregate state of every cell the sweep named, the per-cell job
// snapshots (in request order), and — once every cell is done and the
// sweep was submitted through the axis forms — the merged speedup grid.
// Like ?wait= on jobs, GET /v1/sweeps/{id}?wait=30s long-polls until the
// sweep is terminal or the deadline passes.
type Sweep struct {
	ID        string     `json:"id"`
	State     SweepState `json:"state"`
	Requested int        `json:"requested"`
	Deduped   int        `json:"deduped"`

	// Counts breaks the sweep's unique cells down by job state.
	Counts map[JobState]int `json:"counts"`

	Jobs     []Job          `json:"jobs"`
	Speedups *SweepSpeedups `json:"speedups,omitempty"`

	SubmittedAt time.Time `json:"submittedAt"`
}

// Stats is the response of GET /v1/stats: the scheduler's cumulative
// simulate/hit counters plus the daemon's queue and job-table gauges.
type Stats struct {
	Scheduler exp.Stats `json:"scheduler"`

	Workers    int `json:"workers"`
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`

	// Jobs counts the job table by state.
	Jobs map[JobState]int `json:"jobs"`

	// RateLimited and QuotaDenied count requests rejected with 429 by the
	// per-client rate limit and inflight quota respectively.
	RateLimited int64 `json:"rateLimited"`
	QuotaDenied int64 `json:"quotaDenied"`

	// CacheDir and the DiskCache* fields describe the persistent result
	// cache, when one is configured (-cache-dir). DiskCacheMaxBytes is 0
	// for an unbounded cache; DiskCacheEvictions counts entries the size
	// bound has evicted (eviction never changes results, only the cost of
	// re-simulating an evicted cell).
	CacheDir           string `json:"cacheDir,omitempty"`
	DiskCacheEntries   int    `json:"diskCacheEntries,omitempty"`
	DiskCacheBytes     int64  `json:"diskCacheBytes,omitempty"`
	DiskCacheMaxBytes  int64  `json:"diskCacheMaxBytes,omitempty"`
	DiskCacheEvictions int64  `json:"diskCacheEvictions,omitempty"`

	// Cluster is set only by a coordinator, whose Scheduler counters are
	// every answering worker's summed; it describes the fleet itself.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// WorkerStatus is one worker's membership record in a coordinator.
type WorkerStatus struct {
	Addr string `json:"addr"`
	// Healthy reflects the periodic /healthz probe: false after the
	// configured number of consecutive probe failures, true again after
	// the next success.
	Healthy bool `json:"healthy"`
	// Draining workers receive no new cell assignments; their existing
	// jobs are moved to healthy peers when the drain is requested.
	Draining bool `json:"draining"`
	// ConsecutiveFailures counts probe failures since the last success.
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
	// Jobs counts the coordinator's runs currently parked on this worker.
	Jobs int `json:"jobs"`
	// LastProbe is the time of the most recent health probe, zero before
	// the first probe fires.
	LastProbe time.Time `json:"lastProbe,omitzero"`
}

// ClusterStats describes a coordinator's fleet: per-worker membership
// and health, plus the coordinator's own bookkeeping.
type ClusterStats struct {
	Workers []WorkerStatus `json:"workers"`
	// Healthy counts workers that are healthy and not draining — the
	// set cells are currently assigned to.
	Healthy int `json:"healthy"`
	// TrackedJobs counts the jobs in the coordinator's own table.
	TrackedJobs int `json:"trackedJobs"`
	// Sweeps counts the sweep resources the coordinator owns.
	Sweeps int `json:"sweeps"`
	// ReassignedJobs counts runs moved to a new worker after theirs
	// became unhealthy or was drained.
	ReassignedJobs int64 `json:"reassignedJobs"`
}

// ClusterStatus is the response of GET /v1/cluster (coordinator only).
type ClusterStatus struct {
	Workers []WorkerStatus `json:"workers"`
}

// DrainRequest is the body of POST /v1/cluster/drain (coordinator
// only): it marks the named worker draining (or not). Draining a worker
// moves its assigned cells to healthy peers and excludes it from new
// assignments until undrained.
type DrainRequest struct {
	Addr  string `json:"addr"`
	Drain bool   `json:"drain"`
}

// BenchmarkList is the response of GET /v1/benchmarks (Table II order).
type BenchmarkList struct {
	Benchmarks []string `json:"benchmarks"`
}

// ConfigList is the response of GET /v1/configs: every preset as its
// full canonical config.Config value (config.Config.Canonical — defaults
// explicit, mode-dead fields zeroed), sorted by name, so clients can
// author inline configs and patches without guessing field names.
type ConfigList struct {
	Configs []config.Config `json:"configs"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status string `json:"status"`
}

// KnobList is the response of GET /v1/knobs: every patchable knob path
// with its type, Validate bounds and baseline value — the
// machine-readable form of "what can a -set flag or configPatch say",
// and the axes the design-space explorer searches.
type KnobList struct {
	Knobs []config.Knob `json:"knobs"`
}

// ExploreObjective is the objective/constraint of an exploration, in one
// of two forms: "reach TargetSpeedup, minimize area" (Minimize defaults
// to "area", the only choice) or "stay within AreaBudgetMM2, maximize
// speedup" (Maximize defaults to "speedup"). Exactly one of
// TargetSpeedup and AreaBudgetMM2 must be set.
type ExploreObjective struct {
	TargetSpeedup float64 `json:"targetSpeedup,omitempty"`
	Minimize      string  `json:"minimize,omitempty"`
	AreaBudgetMM2 float64 `json:"areaBudgetMM2,omitempty"`
	Maximize      string  `json:"maximize,omitempty"`
}

// ExploreKnob customizes one search axis: a knob path (any Set spelling)
// and the explicit value ladder to search. When a request names no
// knobs, the explorer uses the built-in Table III mitigation lattice.
type ExploreKnob struct {
	Path   string   `json:"path"`
	Values []string `json:"values"`
}

// ExploreRequest is the body of POST /v1/explore. The exploration ID is
// the content address of the canonicalized request, so resubmitting the
// same search — from any client, against any daemon sharing the cache —
// lands on the same resource and replays instead of re-simulating.
type ExploreRequest struct {
	// Benchmarks and InlineSpecs are the workloads scored by every
	// probe (speedups are geometric means across them); at least one is
	// required.
	Benchmarks  []string     `json:"benchmarks,omitempty"`
	InlineSpecs []trace.Spec `json:"inlineSpecs,omitempty"`
	// Base anchors the lattice on a preset ("" = baseline).
	Base string `json:"base,omitempty"`
	// Strategy names the search: "" or "halving" (successive halving
	// over a coarse-to-fine lattice, the only one); any other name is
	// refused.
	Strategy  string           `json:"strategy,omitempty"`
	Objective ExploreObjective `json:"objective"`
	Knobs     []ExploreKnob    `json:"knobs,omitempty"`
	// MaxRounds bounds the refinement rounds after the first (0 = 8).
	MaxRounds int `json:"maxRounds,omitempty"`
}

// ExplorationState is the lifecycle of an exploration resource.
type ExplorationState string

const (
	ExplorationRunning ExplorationState = "running"
	ExplorationDone    ExplorationState = "done"
	ExplorationFailed  ExplorationState = "failed"
)

// Terminal reports whether the state is final — waiting can stop.
func (s ExplorationState) Terminal() bool {
	return s == ExplorationDone || s == ExplorationFailed
}

// ExplorePoint is one scored lattice point: its non-base knob
// assignments (Set syntax, path order; empty = the base configuration),
// its measured speedup, and its area cost versus the base.
type ExplorePoint struct {
	Sets         []string `json:"sets"`
	Speedup      float64  `json:"speedup"`
	AreaMM2      float64  `json:"areaMM2"`
	OverheadFrac float64  `json:"overheadFrac"`
}

// ExploreRound is one completed search round: how many fresh probes it
// scored and the objective-best point seen so far.
type ExploreRound struct {
	Label       string  `json:"label"`
	Probes      int     `json:"probes"`
	BestSpeedup float64 `json:"bestSpeedup"`
	BestAreaMM2 float64 `json:"bestAreaMM2"`
	// Feasible reports whether any point probed so far satisfies the
	// objective's constraint.
	Feasible bool `json:"feasible"`
}

// ExploreTiers attributes an exploration run's simulation cells to the
// cache tier that satisfied them. A rerun of a finished exploration
// reports Simulated == 0: every cell replays from memo or disk.
type ExploreTiers struct {
	Simulated int64 `json:"simulated"`
	Memo      int64 `json:"memo"`
	Disk      int64 `json:"disk"`
}

// Exploration is the exploration resource returned by POST /v1/explore
// and GET /v1/explorations/{id}. Everything except Tiers (run
// attribution) and Error is a deterministic function of the request:
// rerunning the same exploration reproduces the rounds, probe set,
// frontier and recommendation byte-for-byte. GET supports ?wait= exactly
// like sweeps: long-poll until the exploration is terminal or the
// deadline passes.
type Exploration struct {
	ID       string           `json:"id"`
	State    ExplorationState `json:"state"`
	Strategy string           `json:"strategy"`
	Base     string           `json:"base"`
	// Workloads labels the scored workloads (benchmark names and inline
	// spec names), in request order.
	Workloads []string         `json:"workloads"`
	Objective ExploreObjective `json:"objective"`
	// GridSize is the exhaustive lattice size the search avoided
	// enumerating; Probes is how many distinct points it actually
	// scored.
	GridSize int64          `json:"gridSize"`
	Probes   int            `json:"probes"`
	Rounds   []ExploreRound `json:"rounds"`
	// ProbesDigest is a content hash over the sorted probe set — two
	// runs explored identically iff their digests match.
	ProbesDigest string       `json:"probesDigest,omitempty"`
	Tiers        ExploreTiers `json:"tiers"`
	// Feasible reports whether Recommended satisfies the constraint;
	// false means the lattice cannot reach it and Recommended is the
	// closest point instead.
	Feasible    bool           `json:"feasible"`
	Frontier    []ExplorePoint `json:"frontier,omitempty"`
	Recommended *ExplorePoint  `json:"recommended,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// Error codes: the machine-readable class of every non-2xx response,
// mapped one-to-one onto the HTTP status the daemon uses for it.
const (
	// CodeInvalidArgument (400): the request body or query failed
	// validation; Detail says exactly which field and why.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound (404): no job or sweep with the requested ID.
	CodeNotFound = "not_found"
	// CodeConflict (409): the request is valid but the resource's state
	// forbids it (e.g. canceling a finished job).
	CodeConflict = "conflict"
	// CodeResourceExhausted (429): the per-client rate limit or inflight
	// quota rejected the request; RetryAfter says when to try again.
	CodeResourceExhausted = "resource_exhausted"
	// CodeUnavailable (503): the queue is full, the daemon is draining,
	// or a cluster has no healthy workers.
	CodeUnavailable = "unavailable"
	// CodeInternal (500): an unclassified server-side failure.
	CodeInternal = "internal"
)

// CodeForStatus maps an HTTP status to its error code — the inverse of
// the daemon's status selection, used to classify responses that carry
// no envelope (e.g. a proxy's bare 502).
func CodeForStatus(status int) string {
	switch status {
	case 400:
		return CodeInvalidArgument
	case 404:
		return CodeNotFound
	case 409:
		return CodeConflict
	case 429:
		return CodeResourceExhausted
	case 502, 503, 504:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// Error is the uniform body of every non-2xx response: a stable
// machine-readable Code, a human-readable Detail, and — for retryable
// rejections — RetryAfter, the same whole-seconds hint the Retry-After
// header carries.
type Error struct {
	Code       string `json:"code"`
	Detail     string `json:"detail"`
	RetryAfter int64  `json:"retryAfter,omitempty"`
}

// Error implements the error interface.
func (e Error) Error() string { return e.Detail }
