package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/metrics"
	"gpumembw/internal/obsv"
	"gpumembw/internal/trace"
)

// WorkloadRef names the workload of a Job: exactly one of Bench (a Table
// II benchmark name) or Spec (an inline workload spec) is set. Preset
// names resolve to their registered trace.Spec, so a benchmark named
// "mm" and an inline copy of mm's spec are the *same* workload — they
// share one memo cell, one CellID and one disk-cache entry.
type WorkloadRef struct {
	Bench string      `json:"bench,omitempty"`
	Spec  *trace.Spec `json:"spec,omitempty"`
}

// BenchRef names a Table II benchmark by its registered name.
func BenchRef(name string) WorkloadRef { return WorkloadRef{Bench: name} }

// SpecRef wraps an inline workload spec (the value is copied).
func SpecRef(sp trace.Spec) WorkloadRef { return WorkloadRef{Spec: &sp} }

// defaultSpecName labels inline specs submitted without a name, mirroring
// the "inline" default for unnamed inline configurations.
const defaultSpecName = "custom"

// defaultConfigName labels inline configurations submitted without a name.
const defaultConfigName = "inline"

// ConfigRef names the configuration of a Job — the exact twin of
// WorkloadRef on the hardware axis. Exactly one of Preset (a registered
// preset name), Config (a full inline config.Config) or Patch (a sparse
// overlay on a preset) is set. Preset names resolve to their registered
// config.Config and patches to their applied result, and cell identity
// hashes the resolved configuration's canonical form
// (config.Config.Identity), so a preset named "baseline", an inline copy
// of the baseline and a {"base":"baseline"} patch are the *same*
// hardware — they share one memo cell, one CellID and one disk-cache
// entry.
type ConfigRef struct {
	Preset string         `json:"preset,omitempty"`
	Config *config.Config `json:"config,omitempty"`
	Patch  *config.Patch  `json:"patch,omitempty"`
}

// PresetRef names a registered configuration preset by name.
func PresetRef(name string) ConfigRef { return ConfigRef{Preset: name} }

// InlineConfig wraps a full inline configuration (the value is copied).
func InlineConfig(cfg config.Config) ConfigRef { return ConfigRef{Config: &cfg} }

// PatchRef wraps a mitigation-knob overlay on a named preset.
func PatchRef(p config.Patch) ConfigRef { return ConfigRef{Patch: &p} }

// named returns the ref's inline config with the unnamed-inline default
// applied.
func (r ConfigRef) named() config.Config {
	cfg := *r.Config
	if cfg.Name == "" {
		cfg.Name = defaultConfigName
	}
	return cfg
}

// Label returns the configuration's display name: the preset name, the
// inline config's name (or the unnamed-inline default), or the patch's
// applied name ("<base>-patched" unless the delta renames it).
func (r ConfigRef) Label() string {
	switch {
	case r.Preset != "":
		return r.Preset
	case r.Config != nil:
		return r.named().Name
	case r.Patch != nil:
		if cfg, err := r.Patch.Apply(); err == nil {
			return cfg.Name
		}
		base := r.Patch.Base
		if base == "" {
			base = "baseline"
		}
		return base + "-patched"
	}
	return ""
}

// Resolve returns the concrete configuration the ref names, validated:
// refs that name no configuration, name more than one kind, name an
// unknown preset, carry a patch that does not apply, or resolve to a
// configuration config.Validate rejects are errors. The error is
// user-facing (server handlers return it as 400 detail) — malformed refs
// never panic.
func (r ConfigRef) Resolve() (config.Config, error) {
	var cfg config.Config
	var err error
	switch {
	case r.Preset != "" && (r.Config != nil || r.Patch != nil), r.Config != nil && r.Patch != nil:
		return cfg, fmt.Errorf("preset, config and patch are mutually exclusive")
	case r.Preset != "":
		cfg, err = config.ByName(r.Preset)
	case r.Config != nil:
		cfg = r.named()
	case r.Patch != nil:
		cfg, err = r.Patch.Apply()
	default:
		return cfg, fmt.Errorf("one of preset, config or patch is required (known presets: %v)", config.Names())
	}
	if err == nil {
		err = cfg.Validate()
	}
	return cfg, err
}

// named returns the ref's spec with the unnamed-inline default applied.
func (r WorkloadRef) named() trace.Spec {
	sp := *r.Spec
	if sp.Name == "" {
		sp.Name = defaultSpecName
	}
	return sp
}

// Label returns the workload's display name: the benchmark name, the
// inline spec's name, or the unnamed-inline default.
func (r WorkloadRef) Label() string {
	if r.Spec != nil {
		return r.named().Name
	}
	return r.Bench
}

// Resolve returns the workload spec the ref names, validated: the inline
// spec (with the unnamed-inline default applied) or the registered spec
// of the named benchmark. Refs that name no workload, name both kinds,
// name an unknown benchmark or carry a malformed inline spec are errors,
// user-facing like ConfigRef.Resolve's.
func (r WorkloadRef) Resolve() (trace.Spec, error) {
	switch {
	case r.Bench != "" && r.Spec != nil:
		return trace.Spec{}, fmt.Errorf("bench and spec are mutually exclusive")
	case r.Spec != nil:
		sp := r.named()
		return sp, sp.Validate()
	case r.Bench == "":
		return trace.Spec{}, fmt.Errorf("one of bench or spec is required (known benchmarks: %v)", trace.Names())
	}
	return trace.SpecByName(r.Bench)
}

// Job is one deduplicatable unit of simulation work: a (configuration,
// workload) cell of the design space. Both halves are first-class refs:
// the configuration is a preset name, an inline config.Config or a
// mitigation-knob Patch, and the workload is a paper benchmark by name
// or any custom workload as an inline spec.
//
// Resolve turns the refs into the cell they name, once; the returned Job
// carries that resolution through every layer it is handed to (scheduler,
// result cache, daemon job record), so none of them derives it again. A
// resolved Job's refs must not be reassigned.
type Job struct {
	Config   ConfigRef
	Workload WorkloadRef

	res *resolution
}

// BenchJob builds the common config-value × preset-benchmark job.
func BenchJob(cfg config.Config, bench string) Job {
	return Job{Config: InlineConfig(cfg), Workload: BenchRef(bench)}
}

// SpecJob builds a config-value × inline-spec job.
func SpecJob(cfg config.Config, sp trace.Spec) Job {
	return Job{Config: InlineConfig(cfg), Workload: SpecRef(sp)}
}

// cellKey identifies a cell for memoization: the configuration's and the
// workload's canonical identities, plain comparable values covering every
// knob that affects the simulation. Two configs or specs that differ in
// any live field memoize separately, and callers may mutate presets
// without renaming them. Labels and mode-/pattern-dead fields are
// excluded (config.Config.Identity, trace.Spec.Identity), so identical
// silicon or kernels under different labels share one cell, and the
// cached Metrics may carry the labels of whichever job simulated first.
//
// Only a job that resolved has a key. Canonicalization zeroes dead
// fields, so a value invalid only in a dead field would otherwise alias
// its valid twin's identity; validating before keying is what keeps such
// a job from ever being served (or poisoning) the valid cell.
type cellKey struct {
	cfg  config.Config
	spec trace.Spec
}

// resolution is what a Job's refs name: the concrete, validated
// configuration and workload spec (labels intact), the memo key derived
// from them, and — on first use — the content-addressed cell ID.
type resolution struct {
	cfg  config.Config
	spec trace.Spec
	key  cellKey

	idOnce sync.Once
	id     string
}

// Resolve is the single resolution step: refs → concrete config.Config
// and trace.Spec, validated, canonicalized and keyed. Job identity, memo
// identity and disk-cache identity are this one decision. Resolving a
// resolved Job is free.
func (j Job) Resolve() (Job, error) {
	if j.res != nil {
		return j, nil
	}
	cfg, err := j.Config.Resolve()
	if err != nil {
		return j, err
	}
	sp, err := j.Workload.Resolve()
	if err != nil {
		return j, err
	}
	j.res = &resolution{cfg: cfg, spec: sp, key: cellKey{cfg: cfg.Identity(), spec: sp.Identity()}}
	return j, nil
}

// noCellID is the CellID of a job that does not resolve. It is not a
// hex string, so it can never alias a cell.
const noCellID = "invalid"

// CellID returns the stable, content-addressed identifier of the job's
// memo cell: a hash over the canonical JSON of exactly the identity the
// scheduler memoizes on — the configuration's canonical identity
// (config.Config.Identity) plus the workload's canonical spec identity
// (trace.Spec.Identity). gpusimd uses it for job IDs and disk-cache
// filenames, so job identity and memo identity can never diverge, and an
// inline config or spec equal to a preset lands on the preset's cell. A
// job that does not resolve names no cell and returns "invalid".
func (j Job) CellID() string {
	j, err := j.Resolve()
	if err != nil {
		return noCellID
	}
	r := j.res
	r.idOnce.Do(func() {
		// Validated values hold no non-finite floats, the only thing
		// that defeats Marshal.
		b, _ := json.Marshal(struct {
			Config config.Config `json:"config"`
			Spec   trace.Spec    `json:"spec"`
		}{r.key.cfg, r.key.spec})
		sum := sha256.Sum256(b)
		r.id = hex.EncodeToString(sum[:8])
	})
	return r.id
}

// dedupeJobs resolves every job and drops those whose cell already
// appeared earlier in the slice, preserving first-occurrence order. A job
// that does not resolve stays, so RunJobs reports its error in job order.
func dedupeJobs(jobs []Job) []Job {
	seen := make(map[cellKey]bool, len(jobs))
	uniq := jobs[:0:0]
	for _, j := range jobs {
		j, err := j.Resolve()
		if err == nil {
			if seen[j.res.key] {
				continue
			}
			seen[j.res.key] = true
		}
		uniq = append(uniq, j)
	}
	return uniq
}

// Stats counts the scheduler's work: how many cells were actually
// simulated, how many requests were served from the in-memory memo cache
// (including requests that joined a simulation already in flight), how
// many were served by the optional second-level ResultCache, and the
// cumulative simulated GPU cycles (the numerator of the service's
// sim-cycles/s throughput).
type Stats struct {
	Simulated int64 `json:"simulated"`
	CacheHits int64 `json:"cacheHits"`
	DiskHits  int64 `json:"diskHits"`
	SimCycles int64 `json:"simCycles"`
}

// ResultCache is an optional second-level store consulted before the last
// tier runs a cell and filled after a successful run — gpusimd plugs a
// disk-backed cache in here so restarts do not run cells again. An
// entry holds a run's metrics and, if the run was profiled, its bottleneck
// profile (else nil). Profiles never affect cell identity — they are a
// richer record of the same deterministic run — so an entry with one also
// serves unprofiled requests, while one without is only a metrics hit.
// Lookup and Fill may be called concurrently; the scheduler makes at most
// one call at a time per cell and kind of run, and never caches failed runs.
type ResultCache interface {
	Lookup(j Job) (core.Metrics, *obsv.Profile, bool)
	Fill(j Job, m core.Metrics, p *obsv.Profile)
}

// Cache tiers reported by RunResult.Tier: which layer served the cell.
const (
	TierSimulated = "simulated"
	TierMemo      = "memo"
	TierDisk      = "disk"
)

// RunResult is the full outcome of one cell request: the metrics, the
// bottleneck profile when one was requested, and which cache tier served
// the request (the trace span's cache-tier attribution).
type RunResult struct {
	Metrics core.Metrics
	Profile *obsv.Profile
	Tier    string
}

// cell is one memoized run. done is closed once m, prof and err are
// valid, so concurrent requesters of the same run wait instead of
// re-simulating; prof is set when the run carried the profiler. An
// abandoned run answered nothing: its owner's caller left before the last
// tier did, and its joiners run again.
type cell struct {
	done      chan struct{}
	m         core.Metrics
	prof      *obsv.Profile
	err       error
	abandoned bool
}

// memo is one cell's memo entry, guarded by Scheduler.mu: the run made for
// unprofiled requests and the run made for profiled ones, nil until asked
// for. The simulation is deterministic, so both hold the same metrics.
type memo struct {
	plain, profiled *cell
}

// run picks the run that answers a request and says whether the caller is
// the one to make it. A profiled run answers either kind, but an
// unprofiled request prefers the plain run when there is one, so it never
// waits behind a profile re-run; a profiled request that finds no profiled
// run owns a new one — backfilling a profile is just another run.
func (e *memo) run(profile bool) (c *cell, owner bool) {
	switch {
	case !profile && e.plain != nil:
		return e.plain, false
	case e.profiled != nil:
		return e.profiled, false
	}
	c = &cell{done: make(chan struct{})}
	if profile {
		e.profiled = c
	} else {
		e.plain = c
	}
	return c, true
}

// Scheduler is the experiment engine: it expands figure/table requests
// into deduplicated (config, benchmark) jobs, runs them on a worker pool,
// and memoizes core.Metrics so cells shared between figures — Baseline
// appears in every speedup denominator — simulate exactly once per
// invocation. All methods are safe for concurrent use.
type Scheduler struct {
	workers   int
	progress  io.Writer
	progMu    sync.Mutex
	mu        sync.Mutex
	cells     map[cellKey]*memo
	results   ResultCache
	last      func(context.Context, Job, bool) (RunResult, error)
	simulated atomic.Int64
	hits      atomic.Int64
	diskHits  atomic.Int64
	simCycles atomic.Int64
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithWorkers sets the worker-pool size used by RunJobs. n <= 0 selects
// runtime.GOMAXPROCS(0), the default. Callers surfacing a user-supplied
// count should reject negative values first via ValidateWorkers.
func WithWorkers(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.workers = n
		}
	}
}

// ValidateWorkers rejects worker counts that a user-facing flag should not
// accept: negative values are an error; 0 means "use GOMAXPROCS".
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("exp: invalid worker count %d: must be >= 0 (0 selects GOMAXPROCS)", n)
	}
	return nil
}

// WithResultCache attaches a second-level result store (e.g. gpusimd's
// disk cache) consulted before simulating and filled after success.
func WithResultCache(c ResultCache) Option {
	return func(s *Scheduler) { s.results = c }
}

// WithLastTier replaces simulation as the last step of the miss path —
// memo, then the ResultCache, then last — with a run elsewhere (gpusimd's
// coordinator places the cell on a worker). The result's Tier is last's
// own, and a successful result fills the ResultCache.
func WithLastTier(last func(ctx context.Context, j Job, profile bool) (RunResult, error)) Option {
	return func(s *Scheduler) { s.last = last }
}

// WithProgress directs one line per completed simulation to w. Writes are
// serialized, so w need not be thread-safe itself.
func WithProgress(w io.Writer) Option {
	return func(s *Scheduler) { s.progress = w }
}

// NewScheduler builds an experiment engine.
func NewScheduler(opts ...Option) *Scheduler {
	s := &Scheduler{
		workers: runtime.GOMAXPROCS(0),
		cells:   make(map[cellKey]*memo),
	}
	s.last = s.simulate
	for _, o := range opts {
		o(s)
	}
	return s
}

// Workers reports the configured worker-pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Stats returns the cumulative simulate/hit counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Simulated: s.simulated.Load(),
		CacheHits: s.hits.Load(),
		DiskHits:  s.diskHits.Load(),
		SimCycles: s.simCycles.Load(),
	}
}

// RegisterMetrics exports the scheduler's counters on r under the given
// family prefix (e.g. "gpusimd_scheduler_"). The counters are read at
// scrape time from the same atomics Stats reports, so /metrics and
// /v1/stats can never disagree about the scheduler.
func (s *Scheduler) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.CounterFunc(prefix+"simulated_total",
		"Simulation cells actually run (memo and result-cache misses).",
		func() float64 { return float64(s.simulated.Load()) })
	r.CounterFunc(prefix+"memo_hits_total",
		"Requests served by the in-memory memo cache, including joins of in-flight cells.",
		func() float64 { return float64(s.hits.Load()) })
	r.CounterFunc(prefix+"result_cache_hits_total",
		"Requests served by the second-level result cache (gpusimd's disk spill).",
		func() float64 { return float64(s.diskHits.Load()) })
	r.CounterFunc(prefix+"sim_cycles_total",
		"Cumulative simulated GPU cycles; rate() gives sim-cycles/s throughput.",
		func() float64 { return float64(s.simCycles.Load()) })
}

// RunJob executes (or recalls) one simulation cell. If the cell is
// already being simulated by another goroutine, RunJob waits for that
// result rather than duplicating the work.
func (s *Scheduler) RunJob(j Job) (core.Metrics, error) {
	r, err := s.RunJobEx(context.Background(), j, false)
	return r.Metrics, err
}

// RunJobEx is RunJob with cancellation and observability. It returns
// ctx.Err() if ctx is done before the work starts, and stops waiting on
// another goroutine's in-flight cell when ctx is canceled; a simulation
// this call itself has begun is not aborted mid-flight — the cycle engine
// is not preemptible — so cancellation is effective for queued
// (not-yet-started) work, which is exactly what gpusimd's DELETE
// /v1/jobs/{id} needs. When profile is true the cell runs (or re-runs)
// with the bottleneck profiler attached, and the result reports which
// cache tier served the request. Profiling never changes cell identity or
// metrics — a profiled and an unprofiled request share one memo entry, and
// a cell first computed without a profile is deterministically re-simulated
// once to backfill it (the metrics are provably identical, so only the
// profile is new information).
//
// A run whose last tier fails once ctx has ended — a remote run returns
// early when its caller leaves, a simulation never does — answered
// nothing: it is forgotten, not memoized, and each request that joined it
// with a live context runs the cell again.
func (s *Scheduler) RunJobEx(ctx context.Context, j Job, profile bool) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	// Only a job that resolves gets a memo cell: resolution errors need no
	// memoization (re-resolving is cheap), and a validated key holds no
	// non-finite float, which no map lookup would ever match again.
	j, err := j.Resolve()
	if err != nil {
		return RunResult{}, fmt.Errorf("exp: %w", err)
	}
	s.mu.Lock()
	e := s.cells[j.res.key]
	if e == nil {
		e = new(memo)
		s.cells[j.res.key] = e
	}
	c, owner := e.run(profile)
	s.mu.Unlock()
	if !owner {
		select {
		case <-c.done:
			if c.abandoned {
				return s.RunJobEx(ctx, j, profile)
			}
			s.hits.Add(1)
			return RunResult{Metrics: c.m, Profile: c.prof, Tier: TierMemo}, c.err
		case <-ctx.Done():
			return RunResult{}, ctx.Err()
		}
	}

	// The miss path every run takes: the store, else the last tier, which
	// fills the store. A profiled request hits only an entry that carries a
	// profile; a metrics-only entry still needs the profiled re-run.
	res, ok := RunResult{Tier: TierDisk}, false
	if s.results != nil {
		res.Metrics, res.Profile, ok = s.results.Lookup(j)
		ok = ok && (!profile || res.Profile != nil)
	}
	if ok {
		s.diskHits.Add(1)
	} else {
		res, err = s.last(ctx, j, profile)
		if c.abandoned = err != nil && ctx.Err() != nil; c.abandoned {
			s.mu.Lock()
			if profile {
				e.profiled = nil
			} else {
				e.plain = nil
			}
			s.mu.Unlock()
		} else if err == nil && s.results != nil {
			s.results.Fill(j, res.Metrics, res.Profile)
		}
	}
	c.m, c.prof, c.err = res.Metrics, res.Profile, err
	close(c.done)
	return res, err
}

// simulate is the default last tier: it runs one resolved cell for real.
// Building the workload goes through the error-returning spec path, so
// nothing a daemon accepted over the wire can panic here.
func (s *Scheduler) simulate(_ context.Context, j Job, profile bool) (RunResult, error) {
	res := RunResult{Tier: TierSimulated}
	cfg, label := j.res.cfg, j.res.spec.Name
	wl, err := j.res.spec.Build()
	if err != nil {
		return res, fmt.Errorf("exp: %w", err)
	}
	s.simulated.Add(1)
	if profile {
		res.Metrics, res.Profile, err = core.RunWorkloadProfiled(cfg, wl)
	} else {
		res.Metrics, err = core.RunWorkload(cfg, wl)
	}
	m := res.Metrics
	s.simCycles.Add(m.Cycles)
	if err != nil {
		return res, fmt.Errorf("exp: %s on %s: %w", label, cfg.Name, err)
	}
	if m.Truncated {
		return res, fmt.Errorf("exp: %s on %s truncated at %d cycles", label, cfg.Name, m.Cycles)
	}
	s.logf("ran %s on %s (%d cycles)\n", label, cfg.Name, m.Cycles)
	return res, nil
}

// logf writes one serialized progress line, if a progress sink is set.
func (s *Scheduler) logf(format string, args ...any) {
	if s.progress == nil {
		return
	}
	s.progMu.Lock()
	fmt.Fprintf(s.progress, format, args...)
	s.progMu.Unlock()
}

// Speedup runs bench on cfg and returns performance relative to baseline:
// the smallest grid, baseline and cfg against one benchmark.
func (s *Scheduler) Speedup(cfg config.Config, bench string) (float64, error) {
	sp, err := s.relative(benchGrid([]string{bench}, cfg), 1, 2, true)
	if err != nil {
		return 0, err
	}
	return sp[0][0], nil
}

// RunJobs executes jobs on the worker pool. Duplicate cells — within the
// slice or against the memo cache — simulate only once. The returned
// error is the first failure in job order, independent of scheduling.
func (s *Scheduler) RunJobs(jobs []Job) error {
	_, err := RunAll(context.Background(), s.workers, dedupeJobs(jobs), func(ctx context.Context, j Job) (RunResult, error) {
		return s.RunJobEx(ctx, j, false)
	})
	return err
}

// RunAll is the one batch runner: n workers (n <= 0: one per job) pull
// job indices in job order and run each job through run. It returns every
// job's result in job order and the first error in job order, independent
// of scheduling.
func RunAll(ctx context.Context, n int, jobs []Job, run func(context.Context, Job) (RunResult, error)) ([]RunResult, error) {
	if n <= 0 || n > len(jobs) {
		n = len(jobs)
	}
	out := make([]RunResult, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = run(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
