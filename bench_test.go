// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark reports its headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. They are for measuring while you work; no gate
// reads them. Speed is judged by the perf ledger (go run ./benchmark),
// which CI runs at the parent commit and at HEAD and compares.
//
// Simulations are memoized in a shared runner: the 19 baseline runs feed
// Figs. 1, 4, 5, 7, 8, 9 and every speedup denominator, so the full
// suite runs each distinct (config, benchmark) pair exactly once.
package gpumembw_test

import (
	"sync"
	"testing"

	"gpumembw"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/stats"
)

var (
	runnerOnce sync.Once
	runner     *exp.Scheduler
)

func sharedRunner() *exp.Scheduler {
	runnerOnce.Do(func() { runner = exp.NewScheduler() })
	return runner
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkFig1_StallsAndLatencies measures per-benchmark issue stalls,
// L2-AHL and AML on the baseline (paper AVG: 62%, 303, 452).
func BenchmarkFig1_StallsAndLatencies(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		var st, ahl, aml []float64
		for _, row := range rows {
			st = append(st, row.StallFrac)
			ahl = append(ahl, row.L2AHL)
			aml = append(aml, row.AML)
		}
		b.ReportMetric(100*avg(st), "stall-%")
		b.ReportMetric(avg(ahl), "L2-AHL-cycles")
		b.ReportMetric(avg(aml), "AML-cycles")
	}
}

// BenchmarkTableII_IdealMemory measures P∞ and P_DRAM speedups
// (paper AVG: 2.37 and 1.15).
func BenchmarkTableII_IdealMemory(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.TableII()
		if err != nil {
			b.Fatal(err)
		}
		var pinf, pdram []float64
		for _, row := range rows {
			pinf = append(pinf, row.PInf)
			pdram = append(pdram, row.PDRAM)
		}
		b.ReportMetric(avg(pinf), "Pinf-x")
		b.ReportMetric(avg(pdram), "Pdram-x")
	}
}

// BenchmarkFig3_LatencySweep sweeps the fixed L1 miss latency for the
// paper's representative benchmarks (plateau then decline).
func BenchmarkFig3_LatencySweep(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		pts, err := r.Fig3(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		var at0, at800 []float64
		for _, p := range pts {
			switch p.Latency {
			case 0:
				at0 = append(at0, p.NormIPC)
			case 800:
				at800 = append(at800, p.NormIPC)
			}
		}
		b.ReportMetric(avg(at0), "normIPC@0")
		b.ReportMetric(avg(at800), "normIPC@800")
	}
}

// BenchmarkFig4_L2QueueOccupancy measures how often L2 access queues are
// completely full (paper AVG: 46% of usage lifetime).
func BenchmarkFig4_L2QueueOccupancy(b *testing.B) {
	benchOccupancy(b, (*exp.Scheduler).Fig4)
}

// BenchmarkFig5_DRAMQueueOccupancy measures how often DRAM scheduler queues
// are completely full (paper AVG: 39%).
func BenchmarkFig5_DRAMQueueOccupancy(b *testing.B) {
	benchOccupancy(b, (*exp.Scheduler).Fig5)
}

func benchOccupancy(b *testing.B, fig func(*exp.Scheduler) ([]exp.OccupancyRow, error)) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := fig(r)
		if err != nil {
			b.Fatal(err)
		}
		var full []float64
		for _, row := range rows {
			full = append(full, row.Fractions[stats.OccupancyBuckets-1])
		}
		b.ReportMetric(100*avg(full), "full-%")
	}
}

// BenchmarkFig6_StructuralHazard runs the MSHR=2 vs MSHR=32 illustration
// (examples/hazards) and reports the hazard slowdown.
func BenchmarkFig6_StructuralHazard(b *testing.B) {
	run := func(mshrs int) int64 {
		wl, err := gpumembw.WorkloadSpec{
			Name: "fig6", Iters: 4, LoadsPerIter: 4, ALUPerIter: 1,
			DepDist: 1, WarpsPerCore: 1, Seed: 1,
		}.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg := gpumembw.Baseline()
		cfg.Core.NumCores = 1
		cfg.Core.WarpsPerCore = 1
		cfg.L1.MSHREntries = mshrs
		m, err := gpumembw.Run(cfg, wl)
		if err != nil {
			b.Fatal(err)
		}
		return m.Cycles
	}
	for i := 0; i < b.N; i++ {
		small, large := run(2), run(32)
		b.ReportMetric(float64(small)/float64(large), "hazard-slowdown-x")
	}
}

// BenchmarkFig7_IssueStallTaxonomy reports the str-MEM share of issue
// stalls (paper AVG: 71%).
func BenchmarkFig7_IssueStallTaxonomy(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		var strMem []float64
		for _, row := range rows {
			strMem = append(strMem, row.Fractions[2])
		}
		b.ReportMetric(100*avg(strMem), "str-MEM-%")
	}
}

// BenchmarkFig8_L2StallTaxonomy reports the bp-ICNT share of L2 stalls
// (paper AVG: 42%).
func BenchmarkFig8_L2StallTaxonomy(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var bpICNT []float64
		for _, row := range rows {
			bpICNT = append(bpICNT, row.Fractions[0])
		}
		b.ReportMetric(100*avg(bpICNT), "bp-ICNT-%")
	}
}

// BenchmarkFig9_L1StallTaxonomy reports the bp-L2 share of L1 stalls
// (paper AVG: 48%).
func BenchmarkFig9_L1StallTaxonomy(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		var bpL2 []float64
		for _, row := range rows {
			bpL2 = append(bpL2, row.Fractions[2])
		}
		b.ReportMetric(100*avg(bpL2), "bp-L2-%")
	}
}

// BenchmarkFig10_DesignSpace reports the average speedups of the six
// 4×-scaled design points (paper: L1 1.04, L2 1.59, DRAM 1.11, L1+L2 1.69,
// L2+DRAM 1.76, All 1.90).
func BenchmarkFig10_DesignSpace(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, names, err := r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		for c := range names {
			var sp []float64
			for _, row := range rows {
				sp = append(sp, row.Speedups[c])
			}
			b.ReportMetric(avg(sp), names[c]+"-x")
		}
	}
}

// BenchmarkFig11_CoreFrequency reports the wall-clock performance at
// 1.6 GHz relative to 1.4 GHz (paper, real GTX 480: bandwidth-bound
// benchmarks lose up to 10%).
func BenchmarkFig11_CoreFrequency(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		pts, err := r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		var hi, lo []float64
		for _, p := range pts {
			switch p.CoreMHz {
			case 1600:
				hi = append(hi, p.NormPerf)
			case 1200:
				lo = append(lo, p.NormPerf)
			}
		}
		b.ReportMetric(avg(hi), "perf@1.6GHz-x")
		b.ReportMetric(avg(lo), "perf@1.2GHz-x")
	}
}

// BenchmarkFig12_CostEffective reports the average speedups of the
// cost-effective configurations (paper: 16+48 1.234, 16+68 1.29,
// 32+52 1.257, HBM 1.11).
func BenchmarkFig12_CostEffective(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rows, names, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		for c := range names {
			var sp []float64
			for _, row := range rows {
				sp = append(sp, row.Speedups[c])
			}
			b.ReportMetric(avg(sp), shortConfig(names[c])+"-x")
		}
	}
}

func shortConfig(s string) string {
	if len(s) > 14 {
		return s[len(s)-5:]
	}
	return s
}

// BenchmarkTableIII_AreaModel reports the §VII-C area overheads
// (paper: ≈1.1% storage-only, ≈1.6% with the wider crossbars).
func BenchmarkTableIII_AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.AreaAnalysis()
		for _, row := range rows {
			if row.Config == "cost-effective-16+68" {
				b.ReportMetric(100*row.OverheadFrac, "16+68-die-%")
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed on the
// baseline configuration (cycles simulated per wall second), once for a
// Table II benchmark, once for a custom inline workload spec going
// through the full first-class spec path (validate, canonicalize,
// build), once for a patched hardware configuration going through
// the full first-class config path (patch application, validation,
// canonicalization, ConfigID hashing) — the guard against regressions
// in Canonical/ConfigID on the inline-config build path — and once for a
// latency-bound pointer chase, the cell whose cost is the event engine's
// memory-side wake protocol rather than any unit's busy tick. Beside the
// (noisy) sim-cycles/s each reports unit-ticks/sim-cycle from
// core.EngineStats: how many unit ticks the engine executed per simulated
// cycle, a count that repeats exactly.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.Run("bench=ii", func(b *testing.B) {
		wl, err := gpumembw.WorkloadByName("ii")
		if err != nil {
			b.Fatal(err)
		}
		benchThroughput(b, config.Baseline(), wl, func() (gpumembw.Metrics, error) {
			return gpumembw.Run(config.Baseline(), wl)
		})
	})
	b.Run("spec=custom", func(b *testing.B) {
		spec := gpumembw.WorkloadSpec{
			Name: "bench-custom", WarpsPerCore: 32, Iters: 24,
			LoadsPerIter: 4, StoresPerIter: 1, ALUPerIter: 30,
			DepDist: 3, Pattern: gpumembw.PatHotShared,
			WorkingSetKB: 512, SharedKB: 32, SharedFrac: 0.5,
			StoreWindowLines: 16, Seed: 40,
		}
		benchThroughput(b, config.Baseline(), mustBuild(b, spec), func() (gpumembw.Metrics, error) {
			return gpumembw.RunSpec(config.Baseline(), spec)
		})
	})
	b.Run("config=patched", func(b *testing.B) {
		patch := gpumembw.ConfigPatch{
			Base:  "baseline",
			Delta: []byte(`{"L1":{"MSHREntries":64,"MissQueueEntries":16}}`),
		}
		cfg, err := patch.Apply()
		if err != nil {
			b.Fatal(err)
		}
		wl, err := gpumembw.WorkloadByName("ii")
		if err != nil {
			b.Fatal(err)
		}
		benchThroughput(b, cfg, wl, func() (gpumembw.Metrics, error) {
			return gpumembw.RunPatch(patch, "ii")
		})
	})
	b.Run("spec=chase", func(b *testing.B) {
		// The perf ledger's chase-1w cell (benchmark/cells.go) at 400
		// iterations: one dependent load per warp, one warp per core.
		spec := gpumembw.WorkloadSpec{
			Name: "chase-1w", WarpsPerCore: 1, Iters: 400,
			LoadsPerIter: 1, ALUPerIter: 1,
			Pattern: gpumembw.PatRandomWS, WorkingSetKB: 64 << 10, Seed: 0x5eed,
		}
		benchThroughput(b, config.Baseline(), mustBuild(b, spec), func() (gpumembw.Metrics, error) {
			return gpumembw.RunSpec(config.Baseline(), spec)
		})
	})
}

func mustBuild(b *testing.B, spec gpumembw.WorkloadSpec) *gpumembw.Workload {
	b.Helper()
	wl, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	return wl
}

// BenchmarkNewGPU pins the construction cost of one simulated GPU on the
// baseline configuration — what every cell pays before its first cycle,
// and most of what a tiny service cell allocates at all.
func BenchmarkNewGPU(b *testing.B) {
	wl, err := gpumembw.WorkloadByName("mm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(config.Baseline(), wl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigValidate pins the cost of validating a valid
// configuration — paid once per job resolution, 266 times per warm
// report — and that it allocates nothing.
func BenchmarkConfigValidate(b *testing.B) {
	cfg := config.Baseline()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchThroughput times run and reports its simulation speed, then runs
// the same cell (cfg, wl) once more off the clock for the engine's counts.
func benchThroughput(b *testing.B, cfg config.Config, wl *gpumembw.Workload, run func() (gpumembw.Metrics, error)) {
	b.Helper()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = m.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
	b.StopTimer()
	g, err := core.New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	m, err := g.Run()
	if err != nil || m.Cycles != cycles {
		b.Fatalf("the counted cell ran %d cycles (err %v), the timed one %d", m.Cycles, err, cycles)
	}
	s := g.EngineStats()
	b.ReportMetric(float64(s.Core.TicksRun+s.MemTicksRun())/float64(cycles), "unit-ticks/sim-cycle")
}
