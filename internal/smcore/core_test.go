package smcore

import (
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
)

// testFetchFn mints fetches without routing (single-core tests).
func testFetchFn() NewFetchFn {
	var id uint64
	return func(addr uint64, typ mem.AccessType, size, coreID, warpID int, issueCycle int64) *mem.Fetch {
		id++
		return &mem.Fetch{ID: id, Addr: addr, Type: typ, SizeBytes: size,
			CoreID: coreID, WarpID: warpID, IssueCycle: issueCycle}
	}
}

// streamWorkload: each warp loads a fresh line then does ALU work.
func streamWorkload(loadsPerIter, alusPerIter, iters int) *Workload {
	var body []Inst
	for l := 0; l < loadsPerIter; l++ {
		body = append(body, Inst{Kind: OpLoad, Dest: int8(l + 1), Src1: -1, Src2: -1})
	}
	for a := 0; a < alusPerIter; a++ {
		src := int8(-1)
		if a < loadsPerIter {
			src = int8(a + 1) // consume the loads
		}
		body = append(body, Inst{Kind: OpALU, Dest: int8(32 + a%16), Src1: src, Src2: -1})
	}
	return &Workload{
		Name:    "stream-test",
		Program: Program{Body: body, Iters: iters, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			n := uint64(coreID)<<32 | uint64(warpID)<<20 | uint64(iter)<<8 | uint64(instIdx)
			return append(buf, n*128)
		},
	}
}

func smallConfig() config.Config {
	cfg := config.Baseline()
	cfg.Core.NumCores = 1
	cfg.Core.WarpsPerCore = 4
	return cfg
}

// runIdeal runs a core in an ideal mode to completion.
func runIdeal(t *testing.T, cfg config.Config, wl *Workload, maxCycles int) *Core {
	t.Helper()
	c := NewCore(0, &cfg, wl, testFetchFn())
	if cfg.Mode == config.ModeInfiniteBW {
		c.SetIdealLatency(func(addr uint64) int64 { return int64(cfg.IdealL2HitLatency) })
	}
	for i := 0; i < maxCycles && !c.Done(); i++ {
		c.Tick()
	}
	if !c.Done() {
		t.Fatalf("core did not finish in %d cycles: %s", maxCycles, c.OutstandingWork())
	}
	return c
}

func TestCoreCompletesFixedLatency(t *testing.T) {
	cfg := smallConfig()
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 50
	wl := streamWorkload(2, 4, 3)
	c := runIdeal(t, cfg, wl, 100000)
	wantInsts := int64(4) * wl.Program.TotalInsts()
	if c.Stats.Issued != wantInsts {
		t.Fatalf("issued %d, want %d", c.Stats.Issued, wantInsts)
	}
	if c.Stats.L1Misses == 0 {
		t.Fatal("fresh lines must miss")
	}
	if got := c.Stats.AML.Mean(); got != 50 {
		t.Fatalf("AML = %g, want exactly 50 in fixed-latency mode", got)
	}
}

func TestHigherFixedLatencyIsSlower(t *testing.T) {
	run := func(lat int) int64 {
		cfg := smallConfig()
		cfg.Mode = config.ModeFixedL1MissLat
		cfg.FixedL1MissLatency = lat
		c := runIdeal(t, cfg, streamWorkload(2, 2, 5), 1000000)
		return c.Stats.Cycles
	}
	fast, slow := run(10), run(600)
	if slow <= fast {
		t.Fatalf("latency 600 (%d cycles) not slower than latency 10 (%d)", slow, fast)
	}
}

func TestDataHazardStallsRecorded(t *testing.T) {
	// One warp, a load immediately consumed: the dependent ALU op must
	// wait out the miss latency as a data-MEM stall.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 1
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 200
	wl := &Workload{
		Name: "dep",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},
			{Kind: OpALU, Dest: 2, Src1: 1, Src2: -1},
		}, Iters: 4, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			return append(buf, uint64(iter)*128)
		},
	}
	c := runIdeal(t, cfg, wl, 100000)
	if c.Stats.IssueStalls[StallDataMem] == 0 {
		t.Fatal("dependent load must record data-MEM stalls")
	}
	if c.Stats.IssueStalls[StallDataMem] < 100 {
		t.Fatalf("data-MEM stalls = %d, want ≈ latency per iteration", c.Stats.IssueStalls[StallDataMem])
	}
}

func TestStructuralMemStallWhenPipeFull(t *testing.T) {
	// Memory pipeline width 2 with 4-address strided loads: issue must
	// block with str-MEM when the LSU cannot hold a whole instruction.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 2
	cfg.Core.MemPipelineWidth = 4
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 100
	wl := &Workload{
		Name: "strided",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},
			{Kind: OpLoad, Dest: 2, Src1: -1, Src2: -1},
			{Kind: OpALU, Dest: 3, Src1: 1, Src2: 2},
		}, Iters: 6, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			base := uint64(warpID)<<24 | uint64(iter)<<12 | uint64(instIdx)<<8
			for k := 0; k < 4; k++ { // 4 uncoalesced transactions
				buf = append(buf, (base+uint64(k))*128)
			}
			return buf
		},
	}
	c := runIdeal(t, cfg, wl, 100000)
	if c.Stats.IssueStalls[StallStrMem] == 0 {
		t.Fatal("full memory pipeline must record str-MEM stalls")
	}
}

func TestStrALUFromHeavyOps(t *testing.T) {
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 4
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 0
	body := []Inst{
		{Kind: OpHeavyALU, Dest: 1, Src1: -1, Src2: -1},
		{Kind: OpHeavyALU, Dest: 2, Src1: -1, Src2: -1},
	}
	wl := &Workload{
		Name:    "heavy",
		Program: Program{Body: body, Iters: 10, CodeBase: 1 << 40},
		Addr:    func(buf []uint64, _, _, _, _ int) []uint64 { return buf },
	}
	c := runIdeal(t, cfg, wl, 100000)
	if c.Stats.IssueStalls[StallStrALU] == 0 {
		t.Fatal("back-to-back heavy ALU ops must record str-ALU stalls")
	}
}

func TestL1HitsAfterFill(t *testing.T) {
	// Loads that revisit the same line must hit after the first fill.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 1
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 20
	wl := &Workload{
		Name: "revisit",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},
			{Kind: OpALU, Dest: 2, Src1: 1, Src2: -1},
		}, Iters: 10, CodeBase: 1 << 40},
		Addr: func(buf []uint64, _, _, _, _ int) []uint64 {
			return append(buf, 0x4000) // always the same line
		},
	}
	c := runIdeal(t, cfg, wl, 100000)
	if c.Stats.L1Misses != 1 {
		t.Fatalf("L1 misses = %d, want 1", c.Stats.L1Misses)
	}
	if c.Stats.L1Hits != 9 {
		t.Fatalf("L1 hits = %d, want 9", c.Stats.L1Hits)
	}
}

func TestWriteEvictInvalidatesL1(t *testing.T) {
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 1
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 10
	wl := &Workload{
		Name: "write-evict",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},  // fill the line
			{Kind: OpALU, Dest: 2, Src1: 1, Src2: -1},    // wait for it
			{Kind: OpStore, Dest: -1, Src1: 2, Src2: -1}, // write-evict it
			{Kind: OpLoad, Dest: 3, Src1: -1, Src2: -1},  // must miss again
			{Kind: OpALU, Dest: 4, Src1: 3, Src2: -1},
		}, Iters: 1, CodeBase: 1 << 40},
		Addr: func(buf []uint64, _, _, _, _ int) []uint64 {
			return append(buf, 0x8000)
		},
	}
	c := runIdeal(t, cfg, wl, 100000)
	if c.Stats.L1Misses != 2 {
		t.Fatalf("L1 misses = %d, want 2 (store must evict)", c.Stats.L1Misses)
	}
	if c.Stats.StoresSent != 1 {
		t.Fatalf("stores = %d, want 1", c.Stats.StoresSent)
	}
}

func TestIdealModeL2AHLUses120(t *testing.T) {
	cfg := smallConfig()
	cfg.Mode = config.ModeInfiniteBW
	c := runIdeal(t, cfg, streamWorkload(1, 2, 4), 100000)
	if got := c.Stats.AML.Mean(); got != float64(cfg.IdealL2HitLatency) {
		t.Fatalf("P∞ AML = %g, want %d", got, cfg.IdealL2HitLatency)
	}
}

func TestFetchHazardWithTinyICache(t *testing.T) {
	// A kernel body far larger than the I-cache forces capacity misses;
	// with latency on every miss, fetch stalls must appear.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 2
	cfg.L1.ICacheSizeBytes = 512 // 4 lines
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 150
	var body []Inst
	for i := 0; i < 256; i++ { // 2 KB of code
		body = append(body, Inst{Kind: OpALU, Dest: int8(i % 32), Src1: -1, Src2: -1})
	}
	wl := &Workload{
		Name:    "bigcode",
		Program: Program{Body: body, Iters: 3, CodeBase: 1 << 40},
		Addr:    func(buf []uint64, _, _, _, _ int) []uint64 { return buf },
	}
	c := runIdeal(t, cfg, wl, 1000000)
	if c.Stats.IMisses == 0 {
		t.Fatal("tiny I-cache must miss")
	}
	if c.Stats.IssueStalls[StallFetch] == 0 {
		t.Fatal("I-cache misses must cause fetch stalls")
	}
}

// fillIBuf hand-loads warp i's i-buffer, keeping the ready set in step.
func (c *Core) fillIBuf(i int, insts ...Inst) {
	w := &c.warps[i]
	w.ibufLen = copy(w.ibuf[:], insts)
	c.hasInst[i>>6] |= 1 << uint(i&63)
}

func TestGTOPrefersGreedyWarp(t *testing.T) {
	// Pre-fill two warps' i-buffers by hand: the scheduler must keep
	// issuing from the greedy warp while it has ready instructions, and
	// only then fall back to the oldest ready warp.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 2
	cfg.Mode = config.ModeFixedL1MissLat
	wl := streamWorkload(0, 4, 1)
	c := NewCore(0, &cfg, wl, testFetchFn())
	alu := Inst{Kind: OpALU, Dest: -1, Src1: -1, Src2: -1}
	for i := range c.warps {
		c.fillIBuf(i, alu, alu)
	}
	c.greedy = 1
	before0, before1 := c.warps[0].issued, c.warps[1].issued
	c.issueTick()
	c.issueTick()
	if c.warps[1].issued != before1+2 || c.warps[0].issued != before0 {
		t.Fatalf("GTO not greedy: warp0 +%d, warp1 +%d; want +0/+2",
			c.warps[0].issued-before0, c.warps[1].issued-before1)
	}
	// Greedy warp drained: the oldest warp (0) takes over.
	c.issueTick()
	if c.warps[0].issued != before0+1 {
		t.Fatal("scheduler did not fall back to the oldest warp")
	}
	if c.greedy != 0 {
		t.Fatalf("greedy pointer = %d, want 0", c.greedy)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (int64, int64) {
		cfg := smallConfig()
		cfg.Mode = config.ModeFixedL1MissLat
		cfg.FixedL1MissLatency = 75
		c := runIdeal(t, cfg, streamWorkload(2, 3, 4), 1000000)
		return c.Stats.Cycles, c.Stats.IssueStallCycles()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestNormalModeRequiresDrainThroughMissQueue(t *testing.T) {
	// In normal mode with no injection wired, misses must pile up and the
	// core must NOT complete (validating checkDone covers in-flight work).
	// 12 independent loads per iteration per warp overwhelm the 8-entry
	// miss queue once data injection is blocked. Instruction misses are
	// served instantly so the warps can make it to their loads.
	cfg := smallConfig()
	c := NewCore(0, &cfg, streamWorkload(12, 0, 2), testFetchFn())
	c.SetInject(func(f *mem.Fetch) bool {
		if f.Type == mem.InstRead {
			return c.AcceptResponse(f)
		}
		return false // data path blocked
	})
	for i := 0; i < 5000; i++ {
		c.Tick()
	}
	if c.Done() {
		t.Fatal("core completed with misses stuck in the miss queue")
	}
	if c.Stats.L1Stalls[L1StallBpL2] == 0 {
		t.Fatal("blocked injection must back-pressure as bp-L2 stalls")
	}
}

func TestNormalModeRoundTrip(t *testing.T) {
	// Wire a fake L2 that answers every read after 40 cycles.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 2
	c := NewCore(0, &cfg, streamWorkload(2, 2, 3), testFetchFn())
	type pending struct {
		f    *mem.Fetch
		when int64
	}
	var inFlight []pending
	var cycle int64
	c.SetInject(func(f *mem.Fetch) bool {
		if f.Type.NeedsReply() {
			inFlight = append(inFlight, pending{f, cycle + 40})
		}
		return true
	})
	for cycle = 0; cycle < 100000 && !c.Done(); cycle++ {
		n := 0
		for _, p := range inFlight {
			if p.when <= cycle && c.CanAcceptResponse() {
				p.f.L2Hit = true
				c.AcceptResponse(p.f)
			} else {
				inFlight[n] = p
				n++
			}
		}
		inFlight = inFlight[:n]
		c.Tick()
	}
	if !c.Done() {
		t.Fatalf("core did not drain: %s", c.OutstandingWork())
	}
	if c.Stats.AML.Count == 0 {
		t.Fatal("AML never sampled")
	}
	if c.Stats.AML.Mean() < 40 {
		t.Fatalf("AML = %g, want ≥ 40", c.Stats.AML.Mean())
	}
	if c.Stats.L2AHL.Count == 0 {
		t.Fatal("L2-AHL never sampled for L2 hits")
	}
}

func TestMSHRMergingInNormalMode(t *testing.T) {
	// Two warps load the same line: one miss goes out, the second merges.
	cfg := smallConfig()
	cfg.Core.WarpsPerCore = 2
	wl := &Workload{
		Name: "merge",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},
			{Kind: OpALU, Dest: 2, Src1: 1, Src2: -1},
		}, Iters: 1, CodeBase: 1 << 40},
		Addr: func(buf []uint64, _, _, _, _ int) []uint64 {
			return append(buf, 0xABC00) // same line for both warps
		},
	}
	c := NewCore(0, &cfg, wl, testFetchFn())
	// Replies arrive 60 cycles after injection, leaving a wide window for
	// the second warp's load to merge.
	type flight struct {
		f    *mem.Fetch
		when int
	}
	var outstanding []flight
	cycle := 0
	c.SetInject(func(f *mem.Fetch) bool {
		if f.Type.NeedsReply() {
			outstanding = append(outstanding, flight{f, cycle + 60})
		}
		return true
	})
	for cycle = 0; cycle < 2000 && !c.Done(); cycle++ {
		if len(outstanding) > 0 && outstanding[0].when <= cycle && c.CanAcceptResponse() {
			f := outstanding[0].f
			outstanding = outstanding[1:]
			c.AcceptResponse(f)
		}
		c.Tick()
	}
	if !c.Done() {
		t.Fatalf("not drained: %s", c.OutstandingWork())
	}
	if c.Stats.L1Misses != 1 || c.Stats.L1Merged != 1 {
		t.Fatalf("misses=%d merged=%d, want 1/1", c.Stats.L1Misses, c.Stats.L1Merged)
	}
}
