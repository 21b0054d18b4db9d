package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/smcore"
	"gpumembw/internal/trace"
)

// runEngine runs one cell on the given engine, returning the metrics, the
// run error, and the number of cycles the engine jumped over in bulk.
func runEngine(t *testing.T, cfg config.Config, wl *smcore.Workload, e Engine) (Metrics, error, int64) {
	t.Helper()
	g, err := New(cfg, wl, WithEngine(e))
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Run()
	return m, err, g.EngineStats().SkippedCycles
}

// runProfiled runs one cell with the profiler attached and returns the
// profile's JSON beside the metrics.
func runProfiled(t *testing.T, cfg config.Config, wl *smcore.Workload, e Engine) ([]byte, Metrics, error) {
	t.Helper()
	g, err := New(cfg, wl, WithEngine(e))
	if err != nil {
		t.Fatal(err)
	}
	p := g.AttachProfiler()
	m, runErr := g.Run()
	js, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return js, m, runErr
}

// chaseSpec is the pointer chase of benchmark/cells.go (chaseCell, seed 0),
// restated: one dependent load per iteration over a 64 MiB working set
// that misses everywhere, so each warp has exactly one fetch in the
// hierarchy and the cores sit parked on it.
func chaseSpec(warps, iters int) trace.Spec {
	return trace.Spec{
		Name: fmt.Sprintf("chase-%dw", warps), WarpsPerCore: warps, Iters: iters,
		LoadsPerIter: 1, ALUPerIter: 1, DepDist: 0,
		Pattern: trace.PatRandomWS, WorkingSetKB: 64 << 10, Seed: 0x5eed,
	}
}

// storeHeavySpec writes more than it reads, in place: its store hits hold
// an L2 data port busy with no reply queued behind them, the state in which
// a bank is idle in every queue yet not in the profiler's bank-busy gauge.
var storeHeavySpec = trace.Spec{
	Name: "store-heavy", WarpsPerCore: 6, Iters: 24,
	LoadsPerIter: 1, StoresPerIter: 4, ALUPerIter: 2, DepDist: 1,
	Pattern: trace.PatStream, StoreWindowLines: 8, Seed: 11,
}

func mustBuild(t *testing.T, sp trace.Spec) *smcore.Workload {
	t.Helper()
	wl, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func mustPreset(t *testing.T, name string) config.Config {
	t.Helper()
	cfg, err := config.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// requireIdentical fails unless the two engines agree on every metric.
func requireIdentical(t *testing.T, name string, ev, tick Metrics, evErr, tickErr error) {
	t.Helper()
	if (evErr == nil) != (tickErr == nil) {
		t.Fatalf("%s: event engine error %v, tick engine error %v", name, evErr, tickErr)
	}
	if !reflect.DeepEqual(ev, tick) {
		t.Errorf("%s: engines disagree\nevent: %+v\ntick:  %+v", name, ev, tick)
	}
}

// TestEngineParityInvisible verifies the tentpole guarantee on a pinned
// config×workload matrix: the event engine must leave every collected
// metric byte-identical to the tick-everything reference loop, in each
// simulation mode.
func TestEngineParityInvisible(t *testing.T) {
	wls := trace.Workloads()
	small := func(cfg config.Config) config.Config {
		cfg.Core.NumCores = 2
		return cfg
	}
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"normal", small(config.Baseline())},
		{"p-inf", small(config.InfiniteBW())},
		{"p-dram", small(config.InfiniteDRAM())},
		{"fixed-lat-200", small(config.FixedL1MissLatency(200))},
		{"fixed-lat-800", small(config.FixedL1MissLatency(800))},
	}
	var skippedAnywhere int64
	// sad and stencil park warps on the memory pipeline and on the heavy pipe
	// at once, the state of the scan memo's kept defect
	// (smcore.TestHeavyReleaseWaitsForDirtyScan).
	for _, bench := range []string{"mm", "ii", "bfs'", "sad", "stencil"} {
		wl := wls[bench]
		if wl == nil {
			t.Fatalf("unknown benchmark %q", bench)
		}
		for _, tc := range cases {
			ev, evErr, skipped := runEngine(t, tc.cfg, wl, EngineEvent)
			tick, tickErr, _ := runEngine(t, tc.cfg, wl, EngineTick)
			requireIdentical(t, bench+"/"+tc.name, ev, tick, evErr, tickErr)
			skippedAnywhere += skipped
		}
	}
	if skippedAnywhere == 0 {
		t.Error("the event engine never jumped a cycle; the comparison is vacuous")
	}
}

// TestEngineParityFullSize runs full-size baseline cells (all 15 cores,
// 12 banks, 6 channels) through both engines: the small matrix above keeps
// the suite fast, this one exercises the production geometry. sad and
// stencil are here by name because at this geometry they sit in the scan
// memo's kept defect (smcore.TestHeavyReleaseWaitsForDirtyScan), and sad's
// cycle count is the one every committed golden holds: 34,685 means the
// landing rule went missing, anything else that the defect moved.
func TestEngineParityFullSize(t *testing.T) {
	wls := trace.Workloads()
	for _, bench := range []string{"mm", "sad", "stencil"} {
		ev, evErr, _ := runEngine(t, config.Baseline(), wls[bench], EngineEvent)
		tick, tickErr, _ := runEngine(t, config.Baseline(), wls[bench], EngineTick)
		requireIdentical(t, bench+"/baseline-full", ev, tick, evErr, tickErr)
		if bench == "sad" && ev.Cycles != 34109 {
			t.Errorf("sad@baseline ran %d cycles, the goldens hold 34109", ev.Cycles)
		}
	}
}

// TestEngineParityMemorySide extends the matrix to the cells in which the
// engine now jumps with fetches in flight — latency-bound pointer chases —
// and to the memory-side shapes a chase does not reach: store traffic,
// asymmetric flits, and P_DRAM's fixed-latency channels. Each runs at two
// cores and at full size.
func TestEngineParityMemorySide(t *testing.T) {
	cases := []struct {
		name   string
		preset string
		spec   trace.Spec
	}{
		{"chase-1w@baseline", "baseline", chaseSpec(1, 150)},
		{"chase-2w@baseline", "baseline", chaseSpec(2, 100)},
		{"store-heavy@baseline", "baseline", storeHeavySpec},
		{"chase-2w@cost-effective-16+68", "cost-effective-16+68", chaseSpec(2, 100)},
		{"store-heavy@cost-effective-16+68", "cost-effective-16+68", storeHeavySpec},
		{"chase-2w@P-dram", "P-dram", chaseSpec(2, 100)},
		{"store-heavy@P-dram", "P-dram", storeHeavySpec},
	}
	for _, tc := range cases {
		wl := mustBuild(t, tc.spec)
		for _, cores := range []int{2, 0} {
			cfg := mustPreset(t, tc.preset)
			name := tc.name + "/full"
			if cores > 0 {
				cfg.Core.NumCores = cores
				name = fmt.Sprintf("%s/%d-cores", tc.name, cores)
			}
			ev, evErr, skipped := runEngine(t, cfg, wl, EngineEvent)
			tick, tickErr, _ := runEngine(t, cfg, wl, EngineTick)
			requireIdentical(t, name, ev, tick, evErr, tickErr)
			if strings.HasPrefix(tc.name, "chase") && cores > 0 && 2*skipped <= ev.Cycles {
				t.Errorf("%s: jumped %d of %d cycles; two chasing cores leave most cycles eventless", name, skipped, ev.Cycles)
			}
		}
	}
}

// TestEngineParityBeyond64Cores runs a machine the presets never build —
// 70 cores, so core IDs and reply-ejection occupancy span two 64-bit words
// — through both engines. The wake array's Due hands the run loop its
// cores by one ascending-ID scan and the reply-arrival scan walks the
// occupancy words in order; the other parity cells stop at 15 cores and
// would not see either go wrong past bit 63. Two chasing warps per core keep
// the cell memory-bound: cores park on replies and wake out of step.
func TestEngineParityBeyond64Cores(t *testing.T) {
	cfg := config.Baseline()
	cfg.Core.NumCores = 70
	wl := mustBuild(t, chaseSpec(2, 40))
	ev, evErr, skipped := runEngine(t, cfg, wl, EngineEvent)
	tick, tickErr, _ := runEngine(t, cfg, wl, EngineTick)
	requireIdentical(t, "chase-2w@baseline/70-cores", ev, tick, evErr, tickErr)
	if evErr != nil || ev.Truncated {
		t.Fatalf("the 70-core cell did not run to completion: err %v, truncated %v", evErr, ev.Truncated)
	}
	if skipped == 0 {
		t.Error("the event engine never jumped a cycle of the 70-core cell")
	}
}

// TestEngineJumpsTheChase is the non-vacuity half at the ledger's own
// geometry: chase-1w@baseline, whose 496,523 cycles the parent engine
// jumped 2 of because some unit always held a fetch. With fifteen fetches
// in flight most cycles hold an event of some unit, so the share that can
// be jumped at all is well under half; the per-unit counts are where the
// saving shows: the memory side runs a small multiple of its 388,463
// micro-events, not every tick of every unit.
func TestEngineJumpsTheChase(t *testing.T) {
	g, err := New(config.Baseline(), mustBuild(t, chaseSpec(1, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := g.EngineStats()
	if m.Cycles != 496523 {
		t.Fatalf("chase-1w@baseline ran %d cycles, the ledger's cell runs 496523", m.Cycles)
	}
	if 5*s.SkippedCycles <= m.Cycles {
		t.Errorf("jumped %d of %d cycles, want more than a fifth", s.SkippedCycles, m.Cycles)
	}
	const microEvents = 388463
	if run := s.MemTicksRun(); run > 3*microEvents {
		t.Errorf("memory side ran %d unit ticks, want within 3x of its %d micro-events", run, microEvents)
	}
	if elapsed := s.Xbar.TicksElapsed + s.L2.TicksElapsed + s.DRAM.TicksElapsed; elapsed < 5_000_000 {
		t.Errorf("memory side elapsed %d unit ticks; the tick loop runs about 5.4M", elapsed)
	}
}

// TestUnitTicksCeiling holds the event engine's work per simulated cycle —
// unit ticks executed, core and memory side, over cycles — to a ceiling on
// two cells: ii@baseline, where nearly every cycle has work, and the
// ledger's chase-1w@baseline, where the memory side wakes unit by unit.
// The counts repeat exactly, so each ceiling is the count the engine
// measures now: a change that adds a wake fails here, and a change that
// removes ticks lowers the ceiling to its own count.
func TestUnitTicksCeiling(t *testing.T) {
	cases := []struct {
		name          string
		wl            *smcore.Workload
		cycles, ticks int64
	}{
		{"ii@baseline", trace.Workloads()["ii"], 67068, 1466732},
		{"chase-1w@baseline", mustBuild(t, chaseSpec(1, 2000)), 496523, 652366},
	}
	for _, tc := range cases {
		g, err := New(config.Baseline(), tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := g.EngineStats()
		ticks := s.Core.TicksRun + s.MemTicksRun()
		if m.Cycles != tc.cycles {
			t.Errorf("%s ran %d cycles, want %d", tc.name, m.Cycles, tc.cycles)
			continue
		}
		if ticks > tc.ticks {
			t.Errorf("%s: %d unit ticks (%.4f per cycle), ceiling %d (%.4f)", tc.name,
				ticks, float64(ticks)/float64(m.Cycles), tc.ticks, float64(tc.ticks)/float64(m.Cycles))
		}
		t.Logf("%s: %d unit ticks over %d cycles", tc.name, ticks, m.Cycles)
	}
}

// TestEngineParityProfiled verifies the profiler's bulk-record path: a
// profiled run must produce byte-identical windowed gauges on both
// engines (the event engine feeds RecordN across jumped spans). The chase
// and store-heavy cells jump while DRAM bursts and L2 port reservations
// are still running down: the gauges that compare a reservation with a
// clock (dram/bus-busy, l2/bank-busy) must flip on the tick loop's cycle.
func TestEngineParityProfiled(t *testing.T) {
	small := config.Baseline()
	small.Core.NumCores = 2
	cases := []struct {
		name   string
		cfg    config.Config
		wl     *smcore.Workload
		golden string // testdata/golden file `gpusim -profile` is held to, if any
	}{
		{"mm/2-cores", small, trace.Workloads()["mm"], ""},
		{"chase-1w/2-cores", small, mustBuild(t, chaseSpec(1, 150)), ""},
		{"chase-2w/full", config.Baseline(), mustBuild(t, chaseSpec(2, 60)), ""},
		{"store-heavy/2-cores", small, mustBuild(t, storeHeavySpec), ""},
		// The cell whose committed profile golden the parent engine got
		// wrong: it jumped a drained hierarchy while a store hit still held
		// an L2 port, freezing bank-busy at 1 across the span. The golden
		// is the tick loop's profile, which this test re-derives.
		{"dwt2d/full", config.Baseline(), trace.Workloads()["dwt2d"], "profile-dwt2d-baseline.json"},
	}
	for _, tc := range cases {
		evProf, evM, evErr := runProfiled(t, tc.cfg, tc.wl, EngineEvent)
		tickProf, tickM, tickErr := runProfiled(t, tc.cfg, tc.wl, EngineTick)
		requireIdentical(t, tc.name, evM, tickM, evErr, tickErr)
		if string(evProf) != string(tickProf) {
			t.Errorf("%s: profiles diverged between engines:\nevent: %s\ntick:  %s", tc.name, evProf, tickProf)
		}
		if tc.golden == "" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Indent(&got, tickProf, "", "  "); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
		if got.String() != string(want) {
			t.Errorf("%s: the tick loop's profile is not testdata/golden/%s", tc.name, tc.golden)
		}
	}
}

// TestEngineMaxCyclesMidJump truncates the simulation at a wall of cycles
// chosen to land inside a bulk-replayed span: the jump must stop exactly
// at MaxCycles with the truncation flag set, as if every cycle had been
// ticked.
func TestEngineMaxCyclesMidJump(t *testing.T) {
	wls := trace.Workloads()
	cfg := config.FixedL1MissLatency(800)
	cfg.Core.NumCores = 1

	// Probe a range of walls; with an 800-cycle miss latency several of
	// them land inside a jumped span.
	var skippedAnywhere int64
	for _, wall := range []int64{500, 1000, 2000, 5000} {
		c := cfg
		c.MaxCycles = wall
		ev, evErr, skipped := runEngine(t, c, wls["mm"], EngineEvent)
		tick, tickErr, _ := runEngine(t, c, wls["mm"], EngineTick)
		requireIdentical(t, "maxcycles-mid-jump", ev, tick, evErr, tickErr)
		if ev.Cycles > wall {
			t.Errorf("wall %d: truncated run reports %d cycles", wall, ev.Cycles)
		}
		if !ev.Truncated {
			t.Errorf("wall %d: run was not truncated", wall)
		}
		skippedAnywhere += skipped
	}
	if skippedAnywhere == 0 {
		t.Error("the event engine never jumped before a wall; the test is vacuous")
	}
}

// TestEngineLivelockWindow verifies that the 200k-cycle livelock detector
// fires at the same cycle, with the same error, on both engines.
func TestEngineLivelockWindow(t *testing.T) {
	// A load generating more transactions than the memory pipeline can
	// ever hold stalls str-MEM forever: no completions, no progress.
	cfg := config.Baseline()
	cfg.Core.NumCores = 1
	cfg.Core.MemPipelineWidth = 2
	wl := &smcore.Workload{
		Name:         "livelock",
		Program:      smcore.Program{Body: []smcore.Inst{{Kind: smcore.OpLoad, Dest: 1, Src1: -1, Src2: -1}}, Iters: 2, CodeBase: 1 << 40},
		WarpsPerCore: 1,
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			for k := 0; k < 4; k++ { // 4 lines > width 2
				buf = append(buf, uint64(k)<<7)
			}
			return buf
		},
	}
	ev, evErr, _ := runEngine(t, cfg, wl, EngineEvent)
	tick, tickErr, _ := runEngine(t, cfg, wl, EngineTick)
	if !errors.Is(evErr, ErrLivelock) || !errors.Is(tickErr, ErrLivelock) {
		t.Fatalf("expected livelock from both engines, got %v / %v", evErr, tickErr)
	}
	if evErr.Error() != tickErr.Error() {
		t.Errorf("livelock errors differ:\nevent: %v\ntick:  %v", evErr, tickErr)
	}
	requireIdentical(t, "livelock", ev, tick, nil, nil)
}

// TestEngineClockAccumulators verifies the clock-domain accumulators stay
// bit-exact across jumps and deferred domain skips: the 700 MHz and
// 924 MHz domains must have ticked the same number of times, leaving
// identical fractional state and unit clocks.
func TestEngineClockAccumulators(t *testing.T) {
	wls := trace.Workloads()
	cfg := config.Baseline()
	cfg.Core.NumCores = 2

	g1, err := New(cfg, wls["ii"], WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Run(); err != nil {
		t.Fatal(err)
	}
	g2, err := New(cfg, wls["ii"], WithEngine(EngineTick))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	if g1.icntAcc != g2.icntAcc || g1.dramAcc != g2.dramAcc {
		t.Errorf("accumulators diverged: icnt %v vs %v, dram %v vs %v",
			g1.icntAcc, g2.icntAcc, g1.dramAcc, g2.dramAcc)
	}
	if g1.cycle != g2.cycle {
		t.Errorf("cycle counts diverged: %d vs %d", g1.cycle, g2.cycle)
	}
	if a, b := g1.req.Stats.Cycles, g2.req.Stats.Cycles; a != b {
		t.Errorf("request-network cycle counts diverged: %d vs %d", a, b)
	}
	if a, b := g1.parts[0].DRAM.Stats, g2.parts[0].DRAM.Stats; !reflect.DeepEqual(a, b) {
		t.Errorf("DRAM stats diverged: %+v vs %+v", a, b)
	}
}

// TestLargeLatenciesMatchTick holds the rule that a config Validate admits
// never panics: no horizon exists — a core's wake may lie any distance
// ahead, beyond any fixed completion window — so every in-core latency,
// however large, must simulate, and the event engine, which jumps straight
// to such a wake, must still match the tick oracle on every metric.
func TestLargeLatenciesMatchTick(t *testing.T) {
	wl, err := trace.Spec{
		Name: "large-lat", Iters: 3, WarpsPerCore: 4,
		LoadsPerIter: 2, ALUPerIter: 3, DepDist: 1,
		Pattern: trace.PatRandomWS, WorkingSetKB: 64, Seed: 7,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	small := func(cfg config.Config, edit func(*config.Config)) config.Config {
		cfg.Core.NumCores = 2
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"alu-5000", small(config.Baseline(), func(c *config.Config) { c.Core.ALULatency = 5000 })},
		{"l1-hit-3000", small(config.Baseline(), func(c *config.Config) { c.L1.HitLatency = 3000 })},
		{"fixed-miss-7000", small(config.FixedL1MissLatency(7000), nil)},
		// Beyond every power of two the core's landing calendar can round to.
		{"fixed-miss-70001", small(config.FixedL1MissLatency(70_001), nil)},
		{"p-inf-mem-5000", small(config.InfiniteBW(), func(c *config.Config) { c.IdealMemLatency = 5000 })},
	}
	for _, tc := range cases {
		// New validates the config, and runEngine fails the test if it objects.
		ev, evErr, _ := runEngine(t, tc.cfg, wl, EngineEvent)
		tick, tickErr, _ := runEngine(t, tc.cfg, wl, EngineTick)
		if evErr != nil || tickErr != nil {
			t.Fatalf("%s: run errors: event %v, tick %v", tc.name, evErr, tickErr)
		}
		requireIdentical(t, tc.name, ev, tick, evErr, tickErr)
	}
}

// TestEngineParityRandom is the bounded, always-on half of randomized
// differential testing: 24 fixed seeds each draw a configuration — a
// preset at small geometry with a random subset of its live knobs redrawn
// inside the knob table's [min, max] (a draw Validate refuses on a
// cross-field rule is dropped and the knob keeps its value) — and a
// workload spec inside trace.Spec's caps, and hold the event engine to the
// tick oracle on every metric and on the profile.
func TestEngineParityRandom(t *testing.T) {
	presets := []string{"baseline", "P-dram", "cost-effective-16+68", "P-inf"}
	// Structural knobs stay at the preset's value: a random byte count is
	// almost never a whole number of sets, and the geometry is drawn below.
	fixed := map[string]bool{
		"core.num_cores": true, "core.issue_width": true, "max_cycles": true,
		"l1.size_bytes": true, "l1.line_bytes": true, "l1.icache_size_bytes": true,
		"l2.size_bytes": true, "l2.line_bytes": true, "dram.bus_width_bits": true,
		"dram.row_bytes": true, "dram.infinite_latency": true,
	}
	clockScales := []float64{0.5, 0.8, 1, 1.25, 2, 3.1}
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := mustPreset(t, presets[r.Intn(len(presets))])
		cfg.Core.NumCores = 1 + r.Intn(3)
		set := func(assign ...string) {
			trial := cfg
			if err := trial.Set(assign...); err == nil && trial.Validate() == nil {
				cfg = trial
			}
		}
		for _, k := range config.Knobs() {
			if fixed[k.Path] || r.Intn(3) != 0 {
				continue
			}
			switch k.Type {
			case "int":
				lo, hi := int64(k.Min), int64(k.Max)
				if span := int64(1) << r.Intn(10); hi == 0 || hi > lo+span {
					hi = lo + span // small values: the run must stay short and the queues small
				}
				set(fmt.Sprintf("%s=%d", k.Path, lo+r.Int63n(hi-lo+1)))
			case "float":
				cur, err := config.KnobValue(&cfg, k.Path)
				if err != nil {
					t.Fatal(err)
				}
				var mhz float64
				fmt.Sscan(cur, &mhz)
				v := fmt.Sprintf("%g", mhz*clockScales[r.Intn(len(clockScales))])
				if k.Path == "icnt.clock_mhz" || k.Path == "l2.clock_mhz" {
					set("icnt.clock_mhz="+v, "l2.clock_mhz="+v) // one domain, two spellings
				} else {
					set(k.Path + "=" + v)
				}
			}
		}
		var sp trace.Spec
		for {
			sp = trace.Spec{
				Name: fmt.Sprintf("random-%d", seed), WarpsPerCore: 1 + r.Intn(6), Iters: 1 + r.Intn(6),
				LoadsPerIter: r.Intn(5), StoresPerIter: r.Intn(4), ALUPerIter: r.Intn(7), HeavyPerIter: r.Intn(3),
				DepDist: r.Intn(4), Pattern: trace.Pattern(r.Intn(int(trace.PatTiled) + 1)),
				LinesPerAccess: r.Intn(5), StridePages: r.Intn(4), WorkingSetKB: 1 + r.Intn(4096),
				SharedKB: 1 + r.Intn(64), SharedFrac: r.Float64(), StoreWindowLines: r.Intn(9),
				PadCodeInsts: r.Intn(41), Seed: r.Uint64(),
			}
			if sp.Validate() == nil {
				break
			}
		}
		name := fmt.Sprintf("seed %d (%s, %d cores)", seed, cfg.Name, cfg.Core.NumCores)
		wl := mustBuild(t, sp)
		evProf, ev, evErr := runProfiled(t, cfg, wl, EngineEvent)
		tickProf, tick, tickErr := runProfiled(t, cfg, wl, EngineTick)
		requireIdentical(t, name, ev, tick, evErr, tickErr)
		if evErr != nil && evErr.Error() != tickErr.Error() {
			t.Errorf("%s: errors differ:\nevent: %v\ntick:  %v", name, evErr, tickErr)
		}
		if string(evProf) != string(tickProf) {
			t.Errorf("%s: profiles diverged between engines", name)
		}
		if t.Failed() {
			t.Logf("%s: config %+v\nspec %+v", name, cfg, sp)
			return
		}
	}
}

// TestSlowIsNotLivelocked holds the livelock window to the configuration:
// Validate admits pipeline latencies up to 2^20 cycles, so a 300,000-cycle
// DRAM controller (or fixed L1 miss latency) is a valid, slow machine and
// its cell must complete — identically on both engines — instead of
// reading as 200,000 issue-free cycles of "no forward progress".
func TestSlowIsNotLivelocked(t *testing.T) {
	wl := mustBuild(t, chaseSpec(1, 3))
	slowDRAM := config.Baseline()
	slowDRAM.DRAM.CtrlLatency = 300_000
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"dram.ctrl_latency=300000", slowDRAM},
		{"fixed_l1_miss_latency=300000", config.FixedL1MissLatency(300_000)},
	}
	for _, tc := range cases {
		ev, evErr, _ := runEngine(t, tc.cfg, wl, EngineEvent)
		tick, tickErr, _ := runEngine(t, tc.cfg, wl, EngineTick)
		if evErr != nil || tickErr != nil {
			t.Fatalf("%s: event %v, tick %v", tc.name, evErr, tickErr)
		}
		requireIdentical(t, tc.name, ev, tick, evErr, tickErr)
		if ev.Instructions == 0 || ev.Cycles < 3*300_000 {
			t.Errorf("%s: %d instructions in %d cycles; three dependent misses take at least 900,000", tc.name, ev.Instructions, ev.Cycles)
		}
	}
}
