// Package gpumembw reproduces "Evaluating and Mitigating Bandwidth
// Bottlenecks Across the Memory Hierarchy in GPUs" (Dublish, Nagarajan,
// Topham — ISPASS 2017) as a cycle-level GPU memory-hierarchy simulator.
//
// The library simulates a GTX 480-class GPU — SIMT cores with GTO warp
// scheduling behind write-evict L1s, flit-granularity request/reply
// crossbars, a banked write-back L2 organized into memory partitions, and
// FR-FCFS GDDR5 channels — and measures where bandwidth bottlenecks form:
// per-cause issue stalls, L1/L2 pipeline stalls, queue-occupancy histograms,
// memory latencies, and DRAM bandwidth efficiency.
//
// # Quick start
//
//	wl, _ := gpumembw.WorkloadByName("mm")
//	m, err := gpumembw.Run(gpumembw.Baseline(), wl)
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, stalled %.0f%%, AML %.0f cycles\n",
//	    m.IPC, 100*m.IssueStallFrac, m.AML)
//
// Configurations mirror the paper's design space: Baseline (Table I), the
// 4× scaled points of Fig. 10 (ScaledL1/L2/DRAM and combinations), the
// cost-effective asymmetric crossbars of Fig. 12 (16+48, 16+68, 32+52),
// the ideal memory systems of Table II (InfiniteBW, InfiniteDRAM), the
// fixed-latency sweep of Fig. 3, and an HBM-class DRAM.
//
// Nor are configurations limited to those presets: a Config is a
// first-class value accepted everywhere a preset name is — validated,
// canonicalized and content-addressed (ConfigID) — and the paper's
// Table III mitigations (more MSHRs, deeper miss queues, more L2 banks,
// scaled DRAM) are one ConfigPatch away:
//
//	cfg, _ := gpumembw.ConfigByName("baseline")
//	cfg.Name, cfg.L1.MSHREntries = "baseline-mshr128", 128
//	m, err := gpumembw.RunConfig(cfg, "mm")
//
// Workloads are not limited to the paper's 19 benchmarks: a WorkloadSpec
// is a first-class value accepted everywhere a benchmark name is, so any
// scenario between the canned points — a different coalescing degree,
// TLP, working set or sharing mix — is one RunSpec call away:
//
//	spec, _ := gpumembw.SpecByName("mm")
//	spec.Name, spec.LinesPerAccess = "mm-uncoalesced", 8
//	m, err := gpumembw.RunSpec(gpumembw.Baseline(), spec)
//
// Sweeps over many (configuration, workload) cells should go through the
// Scheduler — a concurrent, memoized experiment engine that deduplicates
// shared cells and runs the rest on a worker pool:
//
//	s := gpumembw.NewScheduler(gpumembw.WithWorkers(8))
//	speedup, err := s.Speedup(gpumembw.ScaledL2(), "mm")
//	grid, err := s.Sweep(configs, workloadRefs) // workload-axis cross products
//
// The commands (cmd/paperfigs, cmd/gpusim, cmd/bwexplore) regenerate
// every table and figure of the paper; see EXPERIMENTS.md for measured-vs-
// paper results and README.md for a tour. For batch campaigns, cmd/gpusimd
// serves the engine over HTTP as an async job API with a persistent result
// cache — drive it with NewClient or cmd/gpusimctl.
package gpumembw

import (
	"context"
	"io"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/explore"
	"gpumembw/internal/obsv"
	"gpumembw/internal/smcore"
	"gpumembw/internal/trace"
)

// Config is the full architectural description of a simulated GPU
// (Table I baseline plus every Table III knob).
type Config = config.Config

// Metrics holds everything the paper measures for one simulation.
type Metrics = core.Metrics

// Workload is a synthetic trace-driven kernel.
type Workload = smcore.Workload

// WorkloadSpec parameterizes a synthetic kernel (instruction mix, TLP,
// coalescing, working-set geometry, sharing, code footprint). Specs are
// first-class API values: they validate (Validate), canonicalize
// (Canonical), and carry a stable content address (SpecID) that every
// layer — engine memo cells, daemon job IDs, disk-cache entries — keys
// on, so semantically identical specs share one simulation everywhere.
type WorkloadSpec = trace.Spec

// Benchmark couples a workload spec with the paper's Table II reference
// speedups.
type Benchmark = trace.Benchmark

// Pattern selects the address stream of a WorkloadSpec's memory
// instructions; spell it with the constants below or ParsePattern.
type Pattern = trace.Pattern

// Workload access patterns for WorkloadSpec.Pattern.
const (
	PatStream    = trace.PatStream
	PatStrided   = trace.PatStrided
	PatRandomWS  = trace.PatRandomWS
	PatHotShared = trace.PatHotShared
	PatTiled     = trace.PatTiled
)

// ParsePattern converts a pattern name ("stream", "strided", "random-ws",
// "hot-shared", "tiled") into its Pattern value.
func ParsePattern(s string) (Pattern, error) { return trace.ParsePattern(s) }

// Configuration presets, re-exported from internal/config.
var (
	Baseline           = config.Baseline
	ScaledL1           = config.ScaledL1
	ScaledL2           = config.ScaledL2
	ScaledDRAM         = config.ScaledDRAM
	ScaledL1L2         = config.ScaledL1L2
	ScaledL2DRAM       = config.ScaledL2DRAM
	ScaledAll          = config.ScaledAll
	HBM                = config.HBM
	CostEffective16x48 = config.CostEffective16x48
	CostEffective16x68 = config.CostEffective16x68
	CostEffective32x52 = config.CostEffective32x52
	AsymmetricOnly     = config.AsymmetricOnly
	InfiniteBW         = config.InfiniteBW
	InfiniteDRAM       = config.InfiniteDRAM
	FixedL1MissLatency = config.FixedL1MissLatency
	WithCoreClock      = config.WithCoreClock
)

// Run simulates wl on cfg and returns the collected metrics.
func Run(cfg Config, wl *Workload) (Metrics, error) {
	return core.RunWorkload(cfg, wl)
}

// Profile is the hierarchy bottleneck profile of a profiled run: a
// windowed time series of per-level gauges (L1 miss queues and MSHRs,
// crossbar port contention, L2 bank occupancy, DRAM channel and
// row-buffer utilization) plus the derived per-level saturation verdict
// — which level bottlenecked first and longest, the time-resolved view
// behind the paper's Fig. 5 analysis.
type Profile = obsv.Profile

// RunProfiled is Run with the bottleneck profiler attached: it returns
// the identical Metrics (profiling never perturbs simulation state) plus
// the Profile. Sampling costs simulation throughput, so profile runs are
// opt-in everywhere: this entry point, `gpusim -profile`, and the
// daemon's JobSpec.Profile flag.
func RunProfiled(cfg Config, wl *Workload) (Metrics, *Profile, error) {
	return core.RunWorkloadProfiled(cfg, wl)
}

// Scheduler is the concurrent, memoized experiment engine: it expands
// figure/table requests into deduplicated (config, workload) jobs, runs
// them on a worker pool, and caches Metrics so cells shared between
// experiments simulate exactly once. See NewScheduler.
type Scheduler = exp.Scheduler

// Job is one (configuration, workload) simulation cell for
// Scheduler.RunJobs. Build one with BenchJob or SpecJob, or assemble
// refs directly for the preset-name and patch forms.
type Job = exp.Job

// WorkloadRef names a job's workload: a Table II benchmark by name, or
// any custom workload as an inline WorkloadSpec. A spec equal to a
// registered benchmark (labels aside) is the same workload — it shares
// the benchmark's simulation cell.
type WorkloadRef = exp.WorkloadRef

// ConfigRef names a job's hardware configuration: a preset by name, a
// full inline Config, or a mitigation-knob ConfigPatch on a preset. A
// config or patch that resolves to a preset's canonical identity is the
// same hardware — it shares the preset's simulation cell.
type ConfigRef = exp.ConfigRef

// ConfigPatch is a sparse overlay on a named preset — the paper's
// Table III mitigations (more MSHRs, deeper miss queues, more L2 banks,
// scaled DRAM) as small JSON diffs, e.g.
// {"base":"baseline","L1":{"MSHREntries":128}}.
type ConfigPatch = config.Patch

// SweepResult is the metrics grid returned by Sweep and
// Scheduler.Sweep; Speedups(0) and Areas measure every configuration
// column against the first.
type SweepResult = exp.SweepResult

// BenchRef names a Table II benchmark for a WorkloadRef.
func BenchRef(name string) WorkloadRef { return exp.BenchRef(name) }

// SpecRef wraps an inline workload spec for a WorkloadRef.
func SpecRef(sp WorkloadSpec) WorkloadRef { return exp.SpecRef(sp) }

// PresetRef names a configuration preset for a ConfigRef.
func PresetRef(name string) ConfigRef { return exp.PresetRef(name) }

// InlineConfig wraps a full inline configuration for a ConfigRef.
func InlineConfig(cfg Config) ConfigRef { return exp.InlineConfig(cfg) }

// PatchRef wraps a mitigation-knob patch for a ConfigRef.
func PatchRef(p ConfigPatch) ConfigRef { return exp.PatchRef(p) }

// SweepConfigs wraps plain config values as inline refs for Sweep's
// config axis.
func SweepConfigs(cfgs []Config) []ConfigRef { return exp.SweepConfigs(cfgs) }

// BenchJob builds a preset-benchmark job.
func BenchJob(cfg Config, bench string) Job { return exp.BenchJob(cfg, bench) }

// SpecJob builds an inline-spec job.
func SpecJob(cfg Config, sp WorkloadSpec) Job { return exp.SpecJob(cfg, sp) }

// SchedulerOption configures a Scheduler (WithWorkers, WithProgress).
type SchedulerOption = exp.Option

// SchedulerStats counts simulated cells and memo-cache hits.
type SchedulerStats = exp.Stats

// Results is the machine-readable form of the paper's evaluation,
// returned by Scheduler.Collect.
type Results = exp.Results

// NewScheduler builds an experiment engine. With no options it uses
// runtime.GOMAXPROCS(0) workers and stays silent.
func NewScheduler(opts ...SchedulerOption) *Scheduler { return exp.NewScheduler(opts...) }

// WithWorkers sets the engine's worker-pool size (n <= 0 keeps the
// GOMAXPROCS default).
func WithWorkers(n int) SchedulerOption { return exp.WithWorkers(n) }

// WithProgress directs one serialized line per completed simulation to w.
func WithProgress(w io.Writer) SchedulerOption { return exp.WithProgress(w) }

// Sections returns the report section names accepted by
// Scheduler.Collect, in the paper's presentation order.
func Sections() []string { return append([]string(nil), exp.Sections...) }

// Benchmarks returns the 19 synthetic benchmarks in Table II order.
func Benchmarks() []Benchmark { return trace.Table() }

// BenchmarkNames returns the benchmark names in Table II order.
func BenchmarkNames() []string { return trace.Names() }

// WorkloadByName builds the named Table II benchmark.
func WorkloadByName(name string) (*Workload, error) { return trace.ByName(name) }

// SpecByName returns the named Table II benchmark as its workload spec —
// the natural starting point for custom workloads: copy it, change the
// axes under study (coalescing degree, TLP, working-set geometry,
// sharing, ...), and pass the result to RunSpec, SpecRef or the daemon.
func SpecByName(name string) (WorkloadSpec, error) { return trace.SpecByName(name) }

// RunSpec validates, builds and simulates an inline workload spec on cfg
// — the one-call path for workloads the paper never enumerated. The
// returned Metrics are identical to any other entry point's for the same
// (config, spec) cell: a scheduler memo hit, a daemon job and `gpusim
// -spec` all share content-addressed cell identity (trace.Spec.SpecID).
func RunSpec(cfg Config, sp WorkloadSpec) (Metrics, error) {
	return exp.NewScheduler().RunJob(exp.SpecJob(cfg, sp))
}

// Sweep runs the configurations × workloads cross product on a fresh
// engine with GOMAXPROCS workers and returns the metrics grid. Both
// axes take refs: mix preset names, inline values and config patches
// freely (wrap plain config values with SweepConfigs). For repeated
// sweeps that should share a memo cache, use NewScheduler().Sweep
// directly.
func Sweep(cfgs []ConfigRef, workloads []WorkloadRef) (*SweepResult, error) {
	return exp.NewScheduler().Sweep(cfgs, workloads)
}

// RunConfig validates and simulates a benchmark on an arbitrary inline
// configuration — the hardware twin of RunSpec, for design points the
// presets never enumerated. The returned Metrics are identical to any
// other entry point's for the same (config, workload) cell: a scheduler
// memo hit, a daemon job and `gpusim -config-file` all share
// content-addressed cell identity (Config.ConfigID).
func RunConfig(cfg Config, bench string) (Metrics, error) {
	return exp.NewScheduler().RunJob(exp.BenchJob(cfg, bench))
}

// RunPatch applies a mitigation-knob patch to its base preset and
// simulates a benchmark on the result — the one-call path for the
// paper's Table III mitigation ladder.
func RunPatch(p ConfigPatch, bench string) (Metrics, error) {
	return exp.NewScheduler().RunJob(Job{Config: exp.PatchRef(p), Workload: exp.BenchRef(bench)})
}

// Configs returns every named configuration preset the paper evaluates.
func Configs() map[string]Config { return config.Presets() }

// ConfigNames returns the preset names accepted by ConfigByName, sorted.
func ConfigNames() []string { return config.Names() }

// ConfigByName returns the named preset. Unknown names are an error that
// lists the valid ones.
func ConfigByName(name string) (Config, error) { return config.ByName(name) }

// ExploreRequest describes a design-space exploration over the
// mitigation knob space: workloads to score candidates on, a base
// preset, an objective (target-speedup ≥ X minimizing area, or
// area-budget ≤ Y mm² maximizing speedup), and — optionally — a custom
// knob lattice (default: the paper's Table III mitigation ladder).
type ExploreRequest = api.ExploreRequest

// ExploreObjective is the search goal of an ExploreRequest.
type ExploreObjective = api.ExploreObjective

// Exploration is the finished (or in-flight) exploration resource:
// per-round progress, probe counts attributed by cache tier, the Pareto
// frontier over (speedup, area), and the recommended point.
type Exploration = api.Exploration

// ExplorePoint is one frontier point: its knob assignments as
// "path=value" sets, measured geomean speedup, and area cost.
type ExplorePoint = api.ExplorePoint

// Explore runs a design-space exploration in-process on a fresh
// memoized engine and returns the finished exploration resource —
// the library twin of `gpusimctl explore` / POST /v1/explore. The
// search is deterministic: the same request always probes the same
// cells in the same order and returns the same frontier; the resource
// ID is the request's content address, identical to the daemon's.
func Explore(ctx context.Context, req ExploreRequest) (*Exploration, error) {
	p, err := explore.Compile(req)
	if err != nil {
		return nil, err
	}
	res, err := explore.Run(ctx, p, explore.SchedulerEval(exp.NewScheduler()), nil)
	if err != nil {
		ex := p.Resource(p.ID(), api.ExplorationFailed, explore.Status{}, nil, err.Error())
		return &ex, err
	}
	ex := p.Resource(p.ID(), api.ExplorationDone, res.Status, res, "")
	return &ex, nil
}

// Knobs returns the mitigation knob-space model: every dotted Set path
// (the `-set`/ConfigPatch grammar) with its type, validation bounds and
// baseline value — the axes Explore searches over.
func Knobs() []config.Knob { return config.Knobs() }

// Client is the typed HTTP client for gpusimd, the simulation daemon
// (cmd/gpusimd): submit (config, benchmark) cells as async jobs, poll
// them, run deduplicated sweeps, and read scheduler stats. See the client
// package for the full API.
type Client = client.Client

// JobSpec names one daemon job: a configuration (preset name or full
// inline Config) plus a workload (benchmark name or full inline
// WorkloadSpec).
type JobSpec = client.JobSpec

// SweepRequest is a config×bench cross product for Client.Sweep.
type SweepRequest = client.SweepRequest

// ClientOption configures a Client (see client.WithHTTPClient and
// client.WithHeader).
type ClientOption = client.Option

// NewClient builds a daemon client for the given base URL, e.g.
// "http://127.0.0.1:8372".
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return client.New(baseURL, opts...)
}
