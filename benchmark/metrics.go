package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// A metricDef is one row of the ledger. The table below is the single
// source of the names, units, directions and bounds: BENCHMARK.json is
// printed from it (-manifest) and the test compares the two.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share the metric may worsen before -compare says worse; 0 = reported, not judged
	E2E    bool    // in BENCHMARK.json's end_to_end list: measured untraced, on every workload
	Exact  bool    // simulated or counted, so it repeats exactly at a fixed seed and run length
	Doc    string
}

// hostTime reports whether the metric is a reading of the host's clock,
// which a run with a wide calibration spread cannot vouch for. Counts,
// sizes and ratios of two readings taken together are not.
func (d metricDef) hostTime() bool {
	switch d.Unit {
	case "s", "ms", "us", "ns", "1/s", "kcycles/s":
		return !d.Exact
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metrics. The benchmark contract wants every one of them on
// every workload, so they are defined in terms of a workload's own
// operation (see README.md); the metrics that exist on one workload only
// are in the next table.
//
// The bounds are the widest the contract allows. One bound serves all five
// workloads, and on the sandbox this was written on the noisiest of them
// (service-tiers, and report's peak memory) read 15-19 % apart between runs
// whenever the host was busy, while the cells workloads stayed within 2 %.
// A regression on those shows long before the bound; the bound is what the
// driver may reject a change for.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, E2E: true,
		Doc: "process start to first timed operation: build specs, resolve configs, warm-up, server and cache-dir boot; median of three fresh processes"},
	{Name: "sim_kcycles_per_s", Unit: "kcycles/s", Better: higher, Bound: 0.25, E2E: true,
		Doc: "simulated core kcycles per host second spent producing them"},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, E2E: true,
		Doc: "median latency of the workload's operation: a cell, a report request, a never-seen cell submitted to the service and waited for"},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, E2E: true,
		Doc: "the workload's operations completed per host second"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25, E2E: true,
		Doc: "VmHWM of the benchmark process when the timed part ends"},
}

// Headline metrics of single workloads. A user sees them end to end, and
// -compare judges them by their bound, but they exist on one workload
// only, so BENCHMARK.json lists them with the per-layer metrics.
var headlineMetrics = []metricDef{
	{Name: "report_cold_s", Unit: "s", Better: lower, Bound: 0.10, Doc: "report: scheduler creation to rendered bytes, fastest pass"},
	{Name: "report_warm_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "report: second Collect+render on the warm scheduler, fastest"},
	{Name: "tableII_mape_pct", Unit: "%", Better: lower, Exact: true, Doc: "report: mean absolute error of simulated P-inf and P-dram speedups against the paper's Table II, 19 benchmarks"},
	{Name: "submit_cold_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "service-tiers: submit to terminal for a never-seen cell (simulation and disk Put included)"},
	{Name: "submit_memo_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "service-tiers: the same for a cell already in memory"},
	{Name: "submit_disk_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "service-tiers: first touch after a restart on a populated cache dir"},
	{Name: "submit_coord_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "service-tiers: resubmit through the coordinator hop"},
	{Name: "svc_mixed_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, Doc: "service-tiers: median latency over the ops of the mixed phase"},
	{Name: "svc_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10, Doc: "service-tiers: completed ops per second of the mixed phase"},
	{Name: "sweep64_s", Unit: "s", Better: lower, Bound: 0.10, Doc: "service-tiers: POST /v1/sweeps of 64 cells until the sweep is done, lower quartile of 5"},
	{Name: "explore_s", Unit: "s", Better: lower, Bound: 0.10, Doc: "service-tiers: POST /v1/explore until done, lower quartile of 5"},
	{Name: "failed_frac", Unit: "ratio", Better: lower, Exact: true, Doc: "failed / attempted: cells or ops that errored, were refused, timed out or returned wrong bytes"},
	{Name: "op_tail_ms", Unit: "ms", Better: lower, Doc: "op latency at the highest percentile with ten samples beyond it"},
}

// Per-layer metrics, named <layer>.<what>. Timings are medians from the
// traced run unless the name says otherwise; cpu_share is the share of
// CPU-profile samples whose leaf function lies in the layer's package.
var layerMetrics = []metricDef{
	{Name: "smcore.tick_busy_ns", Unit: "ns", Better: lower, Doc: "isolated core, 48 warps issuing: host ns per Tick"},
	{Name: "smcore.tick_stalled_ns", Unit: "ns", Better: lower, Doc: "isolated core, every warp blocked: host ns per Tick"},
	{Name: "smcore.cpu_share", Unit: "ratio", Better: lower, Doc: "share of CPU-profile samples charged to the layer; the same for every other cpu_share"},
	{Name: "smcore.issue_stall_frac", Unit: "ratio", Better: lower, Exact: true, Doc: "stalled issue cycles / active core cycles over the workload's cells"},
	{Name: "smcore.l1_accesses", Unit: "count", Better: lower, Exact: true, Doc: "L1 data accesses of one pass"},
	{Name: "smcore.l1_miss_rate", Unit: "ratio", Better: lower, Exact: true, Doc: "L1 misses, merged ones included, per access"},

	{Name: "cache.tag_hit_ns", Unit: "ns", Better: lower, Doc: "TagArray.Access on a resident line"},
	{Name: "cache.tag_miss_ns", Unit: "ns", Better: lower, Doc: "TagArray.ReserveVictim+Fill round trip"},
	{Name: "cache.mshr_ns", Unit: "ns", Better: lower, Doc: "MSHR Allocate/Release"},
	{Name: "cache.cpu_share", Unit: "ratio", Better: lower},

	{Name: "icnt.tick_req_ns", Unit: "ns", Better: lower, Doc: "15x12 saturated request crossbar: host ns per Tick"},
	{Name: "icnt.tick_reply_ns", Unit: "ns", Better: lower, Doc: "12x15 five-flit reply crossbar: host ns per Tick"},
	{Name: "icnt.cpu_share", Unit: "ratio", Better: lower},
	{Name: "icnt.req_util", Unit: "ratio", Better: higher, Exact: true, Doc: "request crossbar utilisation, mean over the cells that have a crossbar"},
	{Name: "icnt.reply_util", Unit: "ratio", Better: higher, Exact: true, Doc: "reply crossbar utilisation, mean over the cells that have a crossbar"},

	{Name: "l2.tick_hit_ns", Unit: "ns", Better: lower, Doc: "one partition, accesses hitting in the L2: host ns per TickL2"},
	{Name: "l2.tick_miss_ns", Unit: "ns", Better: lower, Doc: "one partition, accesses missing to DRAM: host ns per TickL2+DRAM Tick"},
	{Name: "l2.cpu_share", Unit: "ratio", Better: lower},
	{Name: "l2.accesses", Unit: "count", Better: lower, Exact: true, Doc: "L2 bank accesses of one pass"},
	{Name: "l2.miss_rate", Unit: "ratio", Better: lower, Exact: true, Doc: "L2 misses, merged ones included, per access"},
	{Name: "l2.access_q_full_frac", Unit: "ratio", Better: lower, Exact: true, Doc: "share of its usage lifetime the L2 access queue was full (the paper's Fig. 4)"},

	{Name: "dram.tick_stream_ns", Unit: "ns", Better: lower, Doc: "one channel, row-friendly stream: host ns per Tick"},
	{Name: "dram.tick_random_ns", Unit: "ns", Better: lower, Doc: "one channel, row-thrashing reads: host ns per Tick"},
	{Name: "dram.cpu_share", Unit: "ratio", Better: lower},
	{Name: "dram.reads", Unit: "count", Better: lower, Exact: true, Doc: "DRAM read bursts of one pass"},
	{Name: "dram.row_hit_rate", Unit: "ratio", Better: higher, Exact: true, Doc: "column accesses that needed no activate"},
	{Name: "dram.bw_eff", Unit: "ratio", Better: higher, Exact: true, Doc: "data-bus busy cycles per cycle with work pending"},
	{Name: "dram.sched_q_full_frac", Unit: "ratio", Better: lower, Exact: true, Doc: "share of its usage lifetime the DRAM scheduler queue was full (Fig. 5)"},

	{Name: "sched.schedule_due_ns", Unit: "ns", Better: lower, Doc: "Wheel.Schedule+Due+Min per scheduled unit"},
	{Name: "sched.cpu_share", Unit: "ratio", Better: lower},
	{Name: "mem.cpu_share", Unit: "ratio", Better: lower},

	{Name: "obsv.record_ns", Unit: "ns", Better: lower, Doc: "Profiler.Record of one gauge vector"},
	{Name: "obsv.profiled_ratio", Unit: "ratio", Better: lower, Doc: "host time of one pass with the profiler attached / plain"},
	{Name: "obsv.cpu_share", Unit: "ratio", Better: lower},

	{Name: "core.new_ms", Unit: "ms", Better: lower, Doc: "core.New span self time per cell"},
	{Name: "core.run_ms", Unit: "ms", Better: lower, Doc: "GPU.Run span self time per cell"},
	{Name: "core.encode_us", Unit: "us", Better: lower, Doc: "Metrics JSON encode span self time per cell"},
	{Name: "core.host_ns_per_sim_cycle", Unit: "ns", Better: lower, Doc: "sum of per-cell lower-quartile host time / simulated cycles"},
	{Name: "core.host_ns_per_sim_inst", Unit: "ns", Better: lower, Doc: "the same per simulated warp instruction"},
	{Name: "core.sim_cycles", Unit: "count", Better: lower, Exact: true, Doc: "simulated core cycles of one pass"},
	{Name: "core.sim_insts", Unit: "count", Better: lower, Exact: true, Doc: "simulated warp instructions of one pass"},
	{Name: "core.ipc", Unit: "ratio", Better: higher, Exact: true, Doc: "simulated warp instructions per core cycle, whole pass"},
	{Name: "core.stats_mismatches", Unit: "count", Better: lower, Exact: true, Doc: "cells whose Metrics JSON differed between passes, from the golden, or between engines; must be 0"},
	{Name: "core.allocs_per_cell", Unit: "count", Better: lower, Doc: "heap objects allocated per cell (runtime.MemStats.Mallocs)"},
	{Name: "core.alloc_kb_per_cell", Unit: "KiB", Better: lower, Doc: "heap bytes allocated per cell (TotalAlloc)"},
	{Name: "core.tick_engine_ratio", Unit: "ratio", Better: higher, Doc: "tick-engine host time / event-engine host time, parity pass"},
	{Name: "core.cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower, Doc: "samples under the garbage collector's workers, assists and sweeper"},
	{Name: "runtime.other_cpu_share", Unit: "ratio", Better: lower, Doc: "samples in no layer and not GC: allocator, syscalls, net/http, encoding/json, the harness"},

	{Name: "trace.build_us", Unit: "us", Better: lower, Doc: "Spec.Build"},
	{Name: "trace.specid_us", Unit: "us", Better: lower, Doc: "Spec.SpecID"},
	{Name: "trace.cpu_share", Unit: "ratio", Better: lower},
	{Name: "config.resolve_us", Unit: "us", Better: lower, Doc: "ByName + Validate"},
	{Name: "config.configid_us", Unit: "us", Better: lower, Doc: "Config.ConfigID"},
	{Name: "config.patch_us", Unit: "us", Better: lower, Doc: "Patch.Apply"},
	{Name: "config.cpu_share", Unit: "ratio", Better: lower},

	{Name: "exp.cellid_us", Unit: "us", Better: lower, Doc: "Job.CellID"},
	{Name: "exp.memo_hit_us", Unit: "us", Better: lower, Doc: "Scheduler.RunJob on a memoized cell"},
	{Name: "exp.simulated", Unit: "count", Better: lower, Exact: true, Doc: "cells the scheduler simulated (report: per pass; service-tiers: per distinct cold cell, must be 1)"},
	{Name: "exp.memo_hits", Unit: "count", Better: higher, Exact: true, Doc: "report: memo hits of one cold pass"},
	{Name: "exp.worker_busy_frac", Unit: "ratio", Better: higher, Doc: "process CPU time / (workers x wall) during RunJobs"},
	{Name: "exp.collect_ms", Unit: "ms", Better: lower, Doc: "Collect on already-simulated cells"},
	{Name: "exp.render_ms", Unit: "ms", Better: lower, Doc: "WriteText + WriteJSON"},
	{Name: "exp.cpu_share", Unit: "ratio", Better: lower},

	{Name: "api.spec_decode_us", Unit: "us", Better: lower, Doc: "json decode of a JobSpec with inline spec and patch"},
	{Name: "api.job_encode_us", Unit: "us", Better: lower, Doc: "json encode of a done Job"},
	{Name: "api.cpu_share", Unit: "ratio", Better: lower},
	{Name: "client.stub_rtt_us", Unit: "us", Better: lower, Doc: "client.Job against a canned-bytes handler"},
	{Name: "client.cpu_share", Unit: "ratio", Better: lower},

	{Name: "server.queue_wait_ms", Unit: "ms", Better: lower, Doc: "server-reported queued span, cold cells"},
	{Name: "server.running_ms", Unit: "ms", Better: lower, Doc: "server-reported running span, cold cells"},
	{Name: "server.overhead_ms", Unit: "ms", Better: lower, Doc: "cold round trip minus queued and running"},
	{Name: "server.submit_cold_p99_ms", Unit: "ms", Better: lower, Doc: "cold round trip at the highest percentile with ten samples beyond it"},
	{Name: "server.submit_memo_p99_ms", Unit: "ms", Better: lower, Doc: "memo round trip at the highest percentile with ten samples beyond it"},
	{Name: "server.boot_warm_ms", Unit: "ms", Better: lower, Doc: "server.New on the populated cache dir"},
	{Name: "server.cache_put_us", Unit: "us", Better: lower, Doc: "NewDirCache Put"},
	{Name: "server.cache_get_us", Unit: "us", Better: lower, Doc: "NewDirCache Get"},
	{Name: "server.cache_bytes_per_cell", Unit: "B", Better: lower, Doc: "accounted bytes per disk-cache entry"},
	{Name: "server.coord_hop_ms", Unit: "ms", Better: lower, Doc: "submit_coord_p50_ms - submit_memo_p50_ms"},
	{Name: "server.coord_cold_p50_ms", Unit: "ms", Better: lower, Doc: "never-seen cell through the coordinator"},
	{Name: "server.sweep_dedup_frac", Unit: "ratio", Better: higher, Exact: true, Doc: "cells of a repeated sweep answered without a new job"},
	{Name: "server.errors_4xx", Unit: "count", Better: lower, Exact: true, Doc: "client-error responses; every request is well-formed, so must be 0"},
	{Name: "server.errors_5xx", Unit: "count", Better: lower, Exact: true, Doc: "server-error responses; must be 0"},
	{Name: "server.rate_limited", Unit: "count", Better: lower, Exact: true, Doc: "429 responses; no limit is configured, so must be 0"},
	{Name: "server.cpu_share", Unit: "ratio", Better: lower},

	{Name: "explore.compile_us", Unit: "us", Better: lower, Doc: "explore.Compile"},
	{Name: "explore.probes", Unit: "count", Better: lower, Exact: true, Doc: "distinct lattice points the first exploration scored"},
	{Name: "explore.simulated_frac", Unit: "ratio", Better: lower, Exact: true, Doc: "probe cells simulated / probe cells requested"},
	{Name: "explore.search_overhead_ms", Unit: "ms", Better: lower, Doc: "exploration time minus the time its cells took to simulate"},
	{Name: "explore.cpu_share", Unit: "ratio", Better: lower},

	{Name: "metrics.scrape_ms", Unit: "ms", Better: lower, Doc: "GET /metrics and a strict parse"},
	{Name: "metrics.cpu_share", Unit: "ratio", Better: lower},
	{Name: "cmd.gpusim_exec_ms", Unit: "ms", Better: lower, Doc: "one gpusim -json subprocess minus the same cell in-process"},
	{Name: "host.calib_ms", Unit: "ms", Better: lower, Doc: "median time of the frozen calibration kernel"},
	{Name: "host.calib_spread_pct", Unit: "%", Better: lower, Doc: "interquartile spread of the calibration kernel over the run"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Doc: "host time of traced passes or ops over untraced ones, interleaved in the traced run"},
}

// metricTable lists every metric once, end-to-end first.
var metricTable = slices.Concat(e2eMetrics, headlineMetrics, layerMetrics)

var metricIndex = func() map[string]metricDef {
	idx := make(map[string]metricDef, len(metricTable))
	for _, d := range metricTable {
		idx[d.Name] = d
	}
	return idx
}()

func allMetrics() []metricDef { return metricTable }

func metricByName(name string) (metricDef, bool) {
	d, ok := metricIndex[name]
	return d, ok
}

// layerOf returns the layer a per-layer metric belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"cells-membound", "icnt, l2, dram and the L1 miss path do the host work: L1 miss rate 0.55-0.87, DRAM efficiency up to 0.87, one asymmetric-crossbar cell"},
	{"cells-issue", "smcore issue, scoreboard and LSU do the host work: IPC 7-12, work nearly every cycle, two P-inf cells with no icnt, l2 or dram at all"},
	{"cells-idle", "sched and the core event engine's jumps and bulk replay do the host work: fixed-latency and pointer-chase cells, warps parked"},
	{"report", "what a paper reproducer waits for: parallel workers, dedup and memo hits over 57 cells, then a warm report that bypasses simulation"},
	{"service-tiers", "tiny cells, so api, client, server, disk cache, coordinator and explore do the work; cold, memo, disk and coordinator tiers side by side"},
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range allMetrics() {
		if d.E2E {
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return append(out, '\n'), nil
}
