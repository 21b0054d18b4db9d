package core

import (
	"gpumembw/internal/config"
	"gpumembw/internal/l2"
	"gpumembw/internal/obsv"
	"gpumembw/internal/smcore"
	"gpumembw/internal/stats"
)

// SimVersion identifies the simulated behavior of the cycle engine AND
// the cell-identity schema it is addressed by. Bump it in any PR that
// changes what a simulation produces (cycle counts, metrics definitions,
// workload generation) or how cells are identified (exp.Job.CellID,
// trace.Spec canonicalization) — persisted result caches (gpusimd
// -cache-dir) discard entries stamped with a different version, so stale
// caches can never violate the byte-parity promise between the daemon
// and a freshly built `gpusim -json`, and can never serve an entry whose
// content hash was computed under an older identity scheme. Pure-
// performance changes that keep output and identity byte-identical (the
// PR 2 kind) must not bump it.
//
// sim-4: cells are keyed on {config, canonical workload-spec identity}
// (inline WorkloadSpec support) instead of {config, benchmark name}.
//
// sim-5: the config half is keyed on the canonical config identity
// (config.Config.Identity — mode-dead fields zeroed, Name excluded,
// Mode serialized by name) instead of the raw config value, so inline
// configs and patches that are twins of a preset share its cell.
//
// sim-6: a profile is the tick oracle's, cycle for cycle. Up to sim-5 the
// event engine froze the gauges that compare a reservation with a unit's
// clock (l2/bank-busy, dram/bus-busy) across a jumped span, and RecordN
// summed v×n where n Records sum v n times; some window means differed in
// the last printed digits (dwt2d@baseline: two numbers). Metrics did not
// change.
const SimVersion = "ispass17-sim-6"

// Metrics aggregates every quantity the paper reports for one simulation.
// A run, and so Cycles, ends when the last core drains, before its trailing
// stores and the L2 write-backs they cause retire: they hold no core up.
type Metrics struct {
	Benchmark string
	Config    string

	Cycles       int64   // core-clock cycles until the last core drained
	Instructions int64   // warp instructions issued, summed over cores
	IPC          float64 // Instructions / Cycles (whole GPU)
	WallSeconds  float64 // Cycles at the configured core clock
	PerfIPS      float64 // Instructions per second — comparable across clocks

	// Fig. 1: fraction of active core cycles with no instruction issued,
	// and the two latency series (in core cycles).
	IssueStallFrac float64
	AML            float64 // average memory (L1-miss round-trip) latency
	L2AHL          float64 // average latency of misses served by the L2

	// Fig. 7: issue-stall distribution.
	IssueStalls *stats.Breakdown
	// Fig. 9: L1 stall distribution.
	L1Stalls *stats.Breakdown
	// Fig. 8: L2 stall distribution.
	L2Stalls *stats.Breakdown

	// Figs. 4 and 5: occupancy histograms over usage lifetime.
	L2AccessOcc  stats.OccupancyHist
	DRAMSchedOcc stats.OccupancyHist

	L1MissRate float64
	L2MissRate float64

	// §IV-B1 and §VI-A3.
	DRAMBandwidthEff float64
	DRAMRowHitRate   float64

	ReqNetUtil   float64
	ReplyNetUtil float64

	Truncated bool // MaxCycles elapsed before the workload drained
}

// Speedup returns m's performance relative to base, using wall-clock
// throughput so configurations with different core clocks (Fig. 11)
// compare correctly.
func (m Metrics) Speedup(base Metrics) float64 {
	if base.PerfIPS == 0 {
		return 0
	}
	return m.PerfIPS / base.PerfIPS
}

func (g *GPU) collect() Metrics {
	m := Metrics{
		Benchmark:   g.wl.Name,
		Config:      g.cfg.Name,
		Cycles:      g.cycle,
		IssueStalls: stats.NewBreakdown(smcore.IssueStallLabels...),
		L1Stalls:    stats.NewBreakdown(smcore.L1StallLabels...),
		L2Stalls:    stats.NewBreakdown(l2.StallLabels...),
		Truncated:   g.truncated,
	}

	var activeCycles, stallCycles int64
	var aml, ahl stats.LatencySampler
	var l1Acc, l1Miss int64
	for _, c := range g.cores {
		s := &c.Stats
		m.Instructions += s.Issued
		activeCycles += s.Cycles
		stallCycles += s.IssueStallCycles()
		for i, v := range s.IssueStalls {
			m.IssueStalls.Add(i, v)
		}
		for i, v := range s.L1Stalls {
			m.L1Stalls.Add(i, v)
		}
		aml.Merge(&s.AML)
		ahl.Merge(&s.L2AHL)
		l1Acc += s.L1Accesses
		l1Miss += s.L1Misses + s.L1Merged
	}
	if m.Cycles > 0 {
		m.IPC = float64(m.Instructions) / float64(m.Cycles)
	}
	m.WallSeconds = float64(m.Cycles) / (g.cfg.Core.ClockMHz * 1e6)
	if m.WallSeconds > 0 {
		m.PerfIPS = float64(m.Instructions) / m.WallSeconds
	}
	m.IssueStallFrac = stats.Ratio(stallCycles, activeCycles)
	m.AML = aml.Mean()
	m.L2AHL = ahl.Mean()
	m.L1MissRate = stats.Ratio(l1Miss, l1Acc)

	// Memory-side statistics exist only for the detailed hierarchy.
	var l2Acc, l2Miss int64
	var busBusy, pending int64
	var reads, writes, acts int64
	for _, p := range g.parts {
		for _, b := range p.Banks {
			bs := &b.Stats
			l2Acc += bs.Accesses
			l2Miss += bs.Misses + bs.Merged
			// StallCycles[0] is StallNone; causes start at 1.
			for cause := 1; cause < len(bs.StallCycles); cause++ {
				m.L2Stalls.Add(cause-1, bs.StallCycles[cause])
			}
			m.L2AccessOcc.Merge(&bs.AccessOccupancy)
		}
		ds := &p.DRAM.Stats
		m.DRAMSchedOcc.Merge(&ds.SchedOccupancy)
		busBusy += ds.BusBusyCycles
		pending += ds.PendingCycles
		reads += ds.Reads
		writes += ds.Writes
		acts += ds.Activates
	}
	m.L2MissRate = stats.Ratio(l2Miss, l2Acc)
	m.DRAMBandwidthEff = stats.Ratio(busBusy, pending)
	if total := reads + writes; total > 0 {
		m.DRAMRowHitRate = stats.Ratio(max(total-acts, 0), total)
	}
	if g.req != nil {
		m.ReqNetUtil = g.req.Stats.Utilization(g.cfg.L2.NumBanks)
		m.ReplyNetUtil = g.reply.Stats.Utilization(g.cfg.Core.NumCores)
	}
	return m
}

// RunWorkload is the package's one-call entry point: build a GPU for cfg
// and wl, run it, and return the metrics.
func RunWorkload(cfg config.Config, wl *smcore.Workload) (Metrics, error) {
	g, err := New(cfg, wl)
	if err != nil {
		return Metrics{}, err
	}
	return g.Run()
}

// RunWorkloadProfiled runs the cell with the bottleneck profiler
// attached and returns the windowed profile alongside the metrics. The
// metrics are byte-identical to an unprofiled run of the same cell: the
// profiler only observes.
func RunWorkloadProfiled(cfg config.Config, wl *smcore.Workload) (Metrics, *obsv.Profile, error) {
	g, err := New(cfg, wl)
	if err != nil {
		return Metrics{}, nil, err
	}
	p := g.AttachProfiler()
	m, err := g.Run()
	if err != nil {
		return m, nil, err
	}
	return m, p.Snapshot(), nil
}
