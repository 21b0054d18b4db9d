package core

import (
	"encoding/json"
	"errors"
	"reflect"
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
	return m, err, g.skipped
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
	for _, bench := range []string{"mm", "ii", "bfs'"} {
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

// TestEngineParityFullSize runs one full-size baseline cell (all 15 cores,
// 12 banks, 6 channels) through both engines: the small matrix above keeps
// the suite fast, this one exercises the production geometry.
func TestEngineParityFullSize(t *testing.T) {
	wls := trace.Workloads()
	ev, evErr, _ := runEngine(t, config.Baseline(), wls["mm"], EngineEvent)
	tick, tickErr, _ := runEngine(t, config.Baseline(), wls["mm"], EngineTick)
	requireIdentical(t, "mm/baseline-full", ev, tick, evErr, tickErr)
}

// TestEngineParityProfiled verifies the profiler's bulk-record path: a
// profiled run must produce byte-identical windowed gauges on both
// engines (the event engine feeds RecordN across jumped spans).
func TestEngineParityProfiled(t *testing.T) {
	wls := trace.Workloads()
	cfg := config.Baseline()
	cfg.Core.NumCores = 2
	run := func(e Engine) ([]byte, Metrics) {
		g, err := New(cfg, wls["mm"], WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		p := g.AttachProfiler()
		m, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return js, m
	}
	evProf, evM := run(EngineEvent)
	tickProf, tickM := run(EngineTick)
	requireIdentical(t, "profiled", evM, tickM, nil, nil)
	if string(evProf) != string(tickProf) {
		t.Errorf("profiles diverged between engines:\nevent: %s\ntick:  %s", evProf, tickProf)
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
// never panics: every in-core latency far beyond the event wheel's horizon
// (and beyond any fixed completion window) must simulate, and the event
// engine — whose wheel clamps such wakes early — must still match the tick
// oracle on every metric.
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
