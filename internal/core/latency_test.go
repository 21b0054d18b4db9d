package core

import (
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/smcore"
	"gpumembw/internal/stats"
	"gpumembw/internal/trace"
)

// TestUncongestedLatencyCalibration checks the minimum access latencies the
// paper quotes: ~120 core cycles to the L2 and ~100 more to DRAM (§II-A).
func TestUncongestedLatencyCalibration(t *testing.T) {
	// One warp on one core issuing one dependent load at a time: no
	// congestion anywhere.
	// A 24 KB working set exceeds the 16 KB L1 (so loads keep reaching
	// the L2) but revisits lines often enough to produce L2 hits.
	wl, err := trace.Spec{
		Name: "ping", Iters: 400,
		LoadsPerIter: 1, ALUPerIter: 1, DepDist: 0,
		Pattern: trace.PatRandomWS, WorkingSetKB: 24,
		WarpsPerCore: 1, Seed: 3,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	cfg.Core.NumCores = 1
	m, err := RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uncongested: AML=%.0f L2AHL=%.0f", m.AML, m.L2AHL)
	if m.L2AHL < 100 || m.L2AHL > 145 {
		t.Errorf("uncongested L2 hit latency = %.0f core cycles, want ≈120", m.L2AHL)
	}
	// AML mixes L2 hits and misses; with ~50%% hits it should sit between
	// 120 and 220.
	if m.AML < m.L2AHL || m.AML > 235 {
		t.Errorf("uncongested AML = %.0f, want in (L2AHL, 235]", m.AML)
	}
}

// TestL2HitLatencyByHand pins Fig. 1's two latency series on the smallest
// L2 hit: one warp on one baseline core stores to a line, runs a chain of
// dependent ALU operations, then loads the line. The L2 allocates on a
// write, so the store installs the line there; the L1 evicts on a write,
// so the load misses in the L1 and hits in the L2 with nothing else in
// flight. Its round trip, counted in 700 MHz ticks from the tick count k0
// at which it enters the request crossbar:
//
//	 1  the request's one flit (8 B on 32 B flits) crosses at k0+1
//	 8  crossbar pipeline: ejected into the bank's access queue at k0+9,
//	    and the bank takes the head on that same tick
//	34  L2 tag latency
//	 4  data port: a 128 B line on a 32 B port; reply ready at k0+47
//	 5  the reply's flits (136 B on 32 B flits), the last at k0+52
//	 8  crossbar pipeline: the core can pop the reply from tick k0+60
//
// 60 ticks in all. The 700 MHz clock ticks on every second 1,400 MHz core
// cycle, starting with cycle 2, so after the memory half of core cycle C,
// floor(C/2) ticks have passed. A load missing in the L1 on core cycle T
// is stamped IssueCycle T and injected in the same cycle, at k0 = floor(T/2).
// The core pops the reply on cycle 2(k0+60) and consumes it in that
// cycle's Tick, so the sample is 2(floor(T/2)+60) - T: 120 core cycles
// when T is even, 119 when it is odd. With 8 ALU operations the load misses
// on cycle 260, with 16 (one more instruction-cache miss) on cycle 513.
// Both chains are long enough. The store misses on cycle 230 (k = 115) and
// its five flits reach the bank at tick 128, which allocates the line and
// holds the port until tick 132; the 8-ALU load enters the crossbar at tick
// 130 and reaches the bank at 139.
func TestL2HitLatencyByHand(t *testing.T) {
	for _, tc := range []struct {
		alus int
		want int64
	}{{8, 120}, {16, 119}} {
		const none = -1
		body := []smcore.Inst{{Kind: smcore.OpStore, Dest: none, Src1: none, Src2: none}}
		for i := 0; i < tc.alus; i++ {
			src := int8(10 + i%2) // the previous operation's result
			if i == 0 {
				src = none
			}
			body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: int8(11 - i%2), Src1: src, Src2: none})
		}
		body = append(body, smcore.Inst{Kind: smcore.OpLoad, Dest: 1, Src1: none, Src2: none})
		wl := &smcore.Workload{
			Name:         "store-then-load",
			Program:      smcore.Program{Body: body, Iters: 1, CodeBase: 1 << 40},
			Addr:         func(buf []uint64, _, _, _, _ int) []uint64 { return append(buf, 0x10000) },
			WarpsPerCore: 1,
		}
		cfg := config.Baseline()
		cfg.Core.NumCores = 1
		for _, e := range []Engine{EngineEvent, EngineTick} {
			g, err := New(cfg, wl, WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			m, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireConserved(t, wl.Name, g, m)
			s := &g.cores[0].Stats
			want := stats.LatencySampler{Count: 1, Sum: tc.want}
			if s.AML != want || s.L2AHL != want || m.AML != float64(tc.want) || m.L2AHL != float64(tc.want) {
				t.Errorf("%d ALUs, engine %v: AML %+v, L2-AHL %+v (means %g, %g); want one sample of %d in each",
					tc.alus, e, s.AML, s.L2AHL, m.AML, m.L2AHL, tc.want)
			}
			if b := g.banks[g.bankOf(0x10000)]; b.Stats.Writes != 1 || b.Stats.Hits != 1 {
				t.Errorf("%d ALUs, engine %v: the line's L2 bank took %d writes and %d hits, want 1 and 1",
					tc.alus, e, b.Stats.Writes, b.Stats.Hits)
			}
		}
	}
}

// TestAMLIsLittlesLaw holds Fig. 1's AML to Little's law, exactly: on every
// core, the L1 MSHR occupancy summed over the core cycles equals the sum of
// the core's AML samples. An MSHR entry is allocated in the cycle its miss
// is stamped IssueCycle and released in the cycle the reply is consumed and
// sampled, so read after each core's tick it is counted once per cycle of
// that one sample's latency. The test steps runTick's loop by hand, as
// drainMemory does, to read the occupancy after each core's tick; the event
// engine is held to the same metrics by the parity tests. Each run is then
// held to requireConserved.
func TestAMLIsLittlesLaw(t *testing.T) {
	wls := trace.Workloads()
	for _, bench := range []string{"mm", "lbm", "bfs", "sc", "leukocyte", "nw"} {
		for _, cfg := range []config.Config{config.Baseline(), config.InfiniteDRAM()} {
			name := bench + "@" + cfg.Name
			g, err := New(cfg, wls[bench], WithEngine(EngineTick))
			if err != nil {
				t.Fatal(err)
			}
			occ := make([]int64, len(g.cores))
			for done := false; !done; {
				if g.cycle++; g.cycle > 10_000_000 {
					t.Fatalf("%s: not done after %d cycles", name, g.cycle)
				}
				g.tickMemory()
				done = true
				for i, c := range g.cores {
					if c.CanAcceptResponse() {
						if pkt, ok := g.reply.Pop(c.ID); ok {
							c.AcceptResponse(pkt.Fetch)
							g.reply.Release(pkt)
						}
					}
					c.Tick()
					n, _ := c.MSHROcc()
					occ[i] += int64(n)
					done = done && c.Done()
				}
			}
			requireConserved(t, name, g, g.collect())
			for i, c := range g.cores {
				if s := c.Stats.AML; s.Count == 0 || occ[i] != s.Sum {
					t.Errorf("%s core %d: MSHR occupancy sums to %d over %d cycles; %d AML samples sum to %d",
						name, i, occ[i], g.cycle, s.Count, s.Sum)
				}
			}
		}
	}
}
