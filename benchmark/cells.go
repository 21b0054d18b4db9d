package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/trace"
)

// cellDef is one (config, spec) cell as values: everything the program
// under test receives. resolve is the call that turns the config's
// public spelling into a config.Config.
type cellDef struct {
	name    string
	spec    trace.Spec
	resolve func() (config.Config, error)
}

func preset(name string) func() (config.Config, error) {
	return func() (config.Config, error) { return config.ByName(name) }
}

func fixedLat(lat int) func() (config.Config, error) {
	return func() (config.Config, error) { return config.FixedL1MissLatency(lat), nil }
}

// tableCell is a Table II benchmark on a preset, its address stream
// reseeded by the run's seed (seed 0 is the canonical stream).
func tableCell(bench, cfgName string, resolve func() (config.Config, error), seed uint64) cellDef {
	sp, err := trace.SpecByName(bench)
	if err != nil {
		panic(err) // the names below are Table II's
	}
	sp.Seed ^= seed
	return cellDef{name: bench + "@" + cfgName, spec: sp, resolve: resolve}
}

// chaseCell is a pointer chase: each load's address feeds nothing but the
// next iteration, no independent work hides it, and the 64 MiB working
// set misses everywhere, so the cores sit parked on one fetch per warp.
func chaseCell(warps int, seed uint64) cellDef {
	return cellDef{
		name: fmt.Sprintf("chase-%dw@baseline", warps),
		spec: trace.Spec{
			Name: fmt.Sprintf("chase-%dw", warps), WarpsPerCore: warps, Iters: 2000,
			LoadsPerIter: 1, ALUPerIter: 1, DepDist: 0,
			Pattern: trace.PatRandomWS, WorkingSetKB: 64 << 10, Seed: 0x5eed ^ seed,
		},
		resolve: preset("baseline"),
	}
}

// cellList returns the cells of a cells-* workload.
func cellList(workload string, seed uint64) []cellDef {
	base := func(b string) cellDef { return tableCell(b, "baseline", preset("baseline"), seed) }
	on := func(b, cfg string) cellDef { return tableCell(b, cfg, preset(cfg), seed) }
	fixed := func(b string) cellDef { return tableCell(b, "fixed-lat-800", fixedLat(800), seed) }
	switch workload {
	case "cells-membound":
		return []cellDef{base("mm"), base("lbm"), base("nn"), base("bfs"), on("mm", "cost-effective-16+68")}
	case "cells-issue":
		return []cellDef{base("sad"), base("sradv2"), base("stencil"), base("ii"), base("leukocyte"), base("dwt2d"),
			on("mm", "P-inf"), on("leukocyte", "P-inf")}
	case "cells-idle":
		return []cellDef{fixed("mm"), fixed("nn"), fixed("sc"), fixed("leukocyte"), base("sc"),
			chaseCell(1, seed), chaseCell(2, seed)}
	}
	return nil
}

// modelStats are the simulated counters of one cell, read from the GPU's
// public stats after the run.
type modelStats struct {
	cycles, insts              int64
	activeCycles, stallCycles  int64
	l1Acc, l1Miss              int64
	l2Acc, l2Miss              int64
	l2QFull, l2QLife           int64
	dramReads, dramCol, dramAc int64
	dramBusy, dramPending      int64
	dramQFull, dramQLife       int64
	reqUtil, replyUtil         float64
	networks                   int
}

func (a *modelStats) add(b modelStats) {
	a.cycles += b.cycles
	a.insts += b.insts
	a.activeCycles += b.activeCycles
	a.stallCycles += b.stallCycles
	a.l1Acc += b.l1Acc
	a.l1Miss += b.l1Miss
	a.l2Acc += b.l2Acc
	a.l2Miss += b.l2Miss
	a.l2QFull += b.l2QFull
	a.l2QLife += b.l2QLife
	a.dramReads += b.dramReads
	a.dramCol += b.dramCol
	a.dramAc += b.dramAc
	a.dramBusy += b.dramBusy
	a.dramPending += b.dramPending
	a.dramQFull += b.dramQFull
	a.dramQLife += b.dramQLife
	a.reqUtil += b.reqUtil
	a.replyUtil += b.replyUtil
	a.networks += b.networks
}

func readModelStats(g *core.GPU, m core.Metrics) modelStats {
	s := modelStats{cycles: m.Cycles, insts: m.Instructions}
	for _, c := range g.Cores() {
		s.activeCycles += c.Stats.Cycles
		s.stallCycles += c.Stats.IssueStallCycles()
		s.l1Acc += c.Stats.L1Accesses
		s.l1Miss += c.Stats.L1Misses + c.Stats.L1Merged
	}
	for _, p := range g.Partitions() {
		for _, b := range p.Banks {
			s.l2Acc += b.Stats.Accesses
			s.l2Miss += b.Stats.Misses + b.Stats.Merged
			s.l2QFull += b.Stats.AccessOccupancy.Buckets[len(b.Stats.AccessOccupancy.Buckets)-1]
			s.l2QLife += b.Stats.AccessOccupancy.Lifetime
		}
		d := &p.DRAM.Stats
		s.dramReads += d.Reads
		s.dramCol += d.Reads + d.Writes
		s.dramAc += d.Activates
		s.dramBusy += d.BusBusyCycles
		s.dramPending += d.PendingCycles
		s.dramQFull += d.SchedOccupancy.Buckets[len(d.SchedOccupancy.Buckets)-1]
		s.dramQLife += d.SchedOccupancy.Lifetime
	}
	if len(g.Partitions()) > 0 {
		s.reqUtil, s.replyUtil, s.networks = m.ReqNetUtil, m.ReplyNetUtil, 1
	}
	return s
}

// report writes the simulated per-layer statistics of one pass.
func (s modelStats) report(r *runResult, cells int) {
	r.set("core.sim_cycles", float64(s.cycles), cells)
	r.set("core.sim_insts", float64(s.insts), cells)
	r.set("core.ipc", ratio(float64(s.insts), float64(s.cycles)), cells)
	r.set("smcore.issue_stall_frac", ratio(float64(s.stallCycles), float64(s.activeCycles)), cells)
	r.set("smcore.l1_accesses", float64(s.l1Acc), cells)
	r.set("smcore.l1_miss_rate", ratio(float64(s.l1Miss), float64(s.l1Acc)), cells)
	// The rest of the hierarchy exists in normal-mode cells only.
	n := s.networks
	r.set("icnt.req_util", ratio(s.reqUtil, float64(n)), n)
	r.set("icnt.reply_util", ratio(s.replyUtil, float64(n)), n)
	r.set("l2.accesses", float64(s.l2Acc), n)
	r.set("l2.miss_rate", ratio(float64(s.l2Miss), float64(s.l2Acc)), n)
	r.set("l2.access_q_full_frac", ratio(float64(s.l2QFull), float64(s.l2QLife)), n)
	r.set("dram.reads", float64(s.dramReads), n)
	r.set("dram.row_hit_rate", ratio(float64(max(s.dramCol-s.dramAc, 0)), float64(s.dramCol)), n)
	r.set("dram.bw_eff", ratio(float64(s.dramBusy), float64(s.dramPending)), n)
	r.set("dram.sched_q_full_frac", ratio(float64(s.dramQFull), float64(s.dramQLife)), n)
}

// cellOut is what one run of one cell produced.
type cellOut struct {
	hostNs float64
	hash   string // sha256 of the encoded Metrics JSON
	model  modelStats
}

// runCell takes one cell from spec and config values to encoded Metrics
// JSON, which is the interval a cell's host time covers. Each call across
// a layer boundary is a span under the cell's root span.
func runCell(rec *recorder, req string, c cellDef, profiled bool, opts ...core.Option) (cellOut, error) {
	start := time.Now()
	root := rec.begin(0, req, "cell")
	defer rec.end(root)

	id := rec.begin(root, req, "trace.Build")
	wl, err := c.spec.Build()
	rec.end(id)
	if err != nil {
		return cellOut{}, err
	}
	id = rec.begin(root, req, "config.resolve")
	cfg, err := c.resolve()
	rec.end(id)
	if err != nil {
		return cellOut{}, err
	}
	id = rec.begin(root, req, "core.New")
	g, err := core.New(cfg, wl, opts...)
	rec.end(id)
	if err != nil {
		return cellOut{}, err
	}
	if profiled {
		g.AttachProfiler()
	}
	id = rec.begin(root, req, "core.Run")
	m, err := g.Run()
	rec.end(id)
	if err != nil {
		return cellOut{}, err
	}
	if m.Truncated {
		return cellOut{}, fmt.Errorf("truncated at %d cycles", m.Cycles)
	}
	id = rec.begin(root, req, "core.encode")
	data, err := json.Marshal(m)
	rec.end(id)
	if err != nil {
		return cellOut{}, err
	}
	host := time.Since(start)
	sum := sha256.Sum256(data)
	return cellOut{hostNs: float64(host.Nanoseconds()), hash: hex.EncodeToString(sum[:]), model: readModelStats(g, m)}, nil
}

// cellsWorkload is the state of a cells-* run.
type cellsWorkload struct {
	cells  []cellDef
	want   []string   // expected Metrics hash per cell: the golden at seed 0, else the first pass
	model  modelStats // one pass, summed over cells
	misses int
}

func setupCells(e *env) (*cellsWorkload, error) {
	w := &cellsWorkload{cells: cellList(e.workload, e.seed)}
	w.want = make([]string, len(w.cells))
	if e.seed == 0 && !e.updateGoldens {
		gold, err := loadCellGoldens()
		if err != nil {
			return nil, err
		}
		for i, c := range w.cells {
			if w.want[i] = gold[c.name]; w.want[i] == "" {
				return nil, fmt.Errorf("no golden for cell %s (run with -update-goldens)", c.name)
			}
		}
	}
	// Warm-up pass: the heap grows to its working size and every code
	// path of the list runs once, outside the timed passes.
	for _, c := range w.cells {
		if _, err := runCell(nil, "", c, false); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return w, nil
}

// pass runs every cell once, in list order, and checks each output. It
// returns the host nanoseconds per cell.
func (w *cellsWorkload) pass(e *env, rec *recorder, tag string, profiled bool, opts ...core.Option) []float64 {
	host := make([]float64, len(w.cells))
	var model modelStats
	for i, c := range w.cells {
		e.res.attempt(1)
		// Every cell starts on a collected heap, as a cold cell does in a
		// process of its own; the collection is not part of its time.
		runtime.GC()
		var out cellOut
		var err error
		pprof.Do(context.Background(), pprof.Labels(cellLabel, c.name), func(context.Context) {
			out, err = runCell(rec, c.name+"#"+tag, c, profiled, opts...)
		})
		if err != nil {
			e.res.fail("cell %s pass %s: %v", c.name, tag, err)
			continue
		}
		host[i] = out.hostNs
		model.add(out.model)
		switch {
		case w.want[i] == "":
			w.want[i] = out.hash
		case w.want[i] != out.hash:
			w.misses++
			e.res.fail("cell %s pass %s: Metrics JSON sha256 %s, want %s", c.name, tag, out.hash[:12], w.want[i][:12])
		}
	}
	if w.model.cycles == 0 {
		w.model = model
	}
	return host
}

// run makes round-robin passes over the cell list until the run's time is
// up, so that drift in machine speed hits every cell alike, with the
// calibration kernel before the first pass and after each.
func (w *cellsWorkload) run(e *env) {
	n := len(w.cells)
	plain := make([][]float64, n)  // per cell, passes without a recorder
	traced := make([][]float64, n) // per cell, passes with one (traced runs alternate)
	e.calib.sample()
	start := time.Now()
	for p := 0; p < 2 || time.Since(start).Seconds() < e.seconds; p++ {
		rec := e.rec
		if p%2 == 1 {
			rec = nil
		}
		host := w.pass(e, rec, fmt.Sprint(p), false)
		for i, ns := range host {
			if ns == 0 {
				continue
			}
			if rec != nil {
				traced[i] = append(traced[i], ns)
			} else {
				plain[i] = append(plain[i], ns)
			}
		}
		e.calib.sample()
	}

	cost := make([]float64, n) // lower-quartile host ns per cell
	var total, passes float64
	for i := range cost {
		all := append(append([]float64(nil), plain[i]...), traced[i]...)
		cost[i] = lowerQuartile(all)
		total += cost[i]
		passes = float64(len(all))
	}
	if total == 0 {
		return
	}
	r := e.res
	r.set("sim_kcycles_per_s", float64(w.model.cycles)/(total/1e9)/1e3, int(passes))
	r.set("ops_per_s", float64(n)/(total/1e9), int(passes))
	r.set("op_p50_ms", median(cost)/1e6, n)
	tail, _ := tailPercentile(cost)
	r.set("op_tail_ms", tail/1e6, n)
	r.set("core.host_ns_per_sim_cycle", total/float64(w.model.cycles), int(passes))
	r.set("core.host_ns_per_sim_inst", total/float64(w.model.insts), int(passes))
	w.model.report(r, n)
	if e.rec != nil {
		var t, u float64
		for i := range cost {
			t += lowerQuartile(traced[i])
			u += lowerQuartile(plain[i])
		}
		r.set("bench.trace_overhead_pct", 100*(t-u)/u, n)
		w.tracedExtras(e, total)
	}
	r.set("core.stats_mismatches", float64(w.misses), r.Attempted)
	if e.updateGoldens {
		hashes := make(map[string]string, n)
		for i, c := range w.cells {
			hashes[c.name] = w.want[i]
		}
		if err := updateCellGoldens(hashes); err != nil {
			r.fail("update goldens: %v", err)
		}
	}
}

// tracedExtras are the passes only a traced run makes: allocation
// counts, the profiler-attached pass, the tick-engine parity pass and
// the CPU-profiled passes.
func (w *cellsWorkload) tracedExtras(e *env, eventNs float64) {
	r, n := e.res, len(w.cells)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.pass(e, nil, "alloc", false)
	runtime.ReadMemStats(&after)
	r.set("core.allocs_per_cell", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	r.set("core.alloc_kb_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n), n)

	r.set("obsv.profiled_ratio", sum(w.pass(e, nil, "obsv", true))/eventNs, n)
	// Event and tick engines must agree on every byte; the pass checks
	// each hash against the event engine's.
	r.set("core.tick_engine_ratio", sum(w.pass(e, nil, "tick", false, core.WithEngine(core.EngineTick)))/eventNs, n)

	prof, err := cpuShares(func() {
		for t := time.Now(); time.Since(t) < profileFor; {
			w.pass(e, nil, "pprof", false)
		}
	})
	if err != nil {
		r.fail("cpu profile: %v", err)
		return
	}
	prof.report(e)

	spans := selfByName(e.rec.snapshot())
	r.set("core.new_ms", median(spans["core.New"])/1e6, len(spans["core.New"]))
	r.set("core.run_ms", median(spans["core.Run"])/1e6, len(spans["core.Run"]))
	r.set("core.encode_us", median(spans["core.encode"])/1e3, len(spans["core.encode"]))
}
