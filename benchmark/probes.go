package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/cache"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/dram"
	"gpumembw/internal/exp"
	"gpumembw/internal/explore"
	"gpumembw/internal/icnt"
	"gpumembw/internal/l2"
	"gpumembw/internal/mem"
	"gpumembw/internal/obsv"
	"gpumembw/internal/sched"
	"gpumembw/internal/server"
	"gpumembw/internal/smcore"
	"gpumembw/internal/trace"
)

// probeLayers is the part of a traced run that does not depend on the
// workload: each layer's public functions driven in isolation, one level
// at a time, so that a later change to one layer shows in that layer's
// own number whatever the workloads do.
func probeLayers(e *env) {
	driveModelUnits(e.res)
	timeDirectCalls(e)
	if err := timeGpusimExec(e); err != nil {
		e.res.fail("gpusim subprocess: %v", err)
	}
}

const probeBatches = 7

// probeBase is the pool index range the probes' cells come from.
const probeBase = 1 << 27

// perCall times probeBatches batches of n calls and returns the median
// nanoseconds per call.
func perCall(n int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// setProbe stores a perCall result in the metric's unit (unitNs nanoseconds).
func setProbe(r *runResult, name string, ns, unitNs float64) {
	r.set(name, ns/unitNs, probeBatches)
}

func fetchMinter() smcore.NewFetchFn {
	var id uint64
	return func(addr uint64, typ mem.AccessType, size, coreID, warpID int, issueCycle int64) *mem.Fetch {
		id++
		return &mem.Fetch{ID: id, Addr: addr, Type: typ, SizeBytes: size, CoreID: coreID, WarpID: warpID, IssueCycle: issueCycle}
	}
}

// driveModelUnits ticks each model unit alone under a synthetic input, in
// the shapes of the packages' own micro-benchmarks.
func driveModelUnits(r *runResult) {
	const none = int8(-1)

	// smcore: 48 warps issuing under a 200-cycle fixed-latency memory.
	cfg := config.Baseline()
	cfg.Mode, cfg.FixedL1MissLatency = config.ModeFixedL1MissLat, 200
	var body []smcore.Inst
	for l := 0; l < 4; l++ {
		body = append(body, smcore.Inst{Kind: smcore.OpLoad, Dest: int8(l + 1), Src1: none, Src2: none})
	}
	for a := 0; a < 8; a++ {
		src := none
		if a < 4 {
			src = int8(a + 1)
		}
		body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: int8(32 + a), Src1: src, Src2: none})
	}
	stream := &smcore.Workload{Name: "drive-busy",
		Program: smcore.Program{Body: body, Iters: 1 << 30, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			return append(buf, (uint64(warpID)<<20|uint64(iter)<<8|uint64(instIdx))*128)
		}}
	busy := smcore.NewCore(0, &cfg, stream, fetchMinter())
	setProbe(r, "smcore.tick_busy_ns", perCall(20000, busy.Tick), 1)

	// smcore: every warp parked on a load. The completion ring bounds the
	// latency, so each batch parks a fresh core and times the ticks
	// before the first load returns.
	parkCfg := cfg
	parkCfg.FixedL1MissLatency = 1500
	park := &smcore.Workload{Name: "drive-stalled",
		Program: smcore.Program{Body: []smcore.Inst{
			{Kind: smcore.OpLoad, Dest: 1, Src1: none, Src2: none},
			{Kind: smcore.OpALU, Dest: 2, Src1: 1, Src2: none},
		}, Iters: 1 << 30, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			return append(buf, uint64(warpID)<<20|uint64(iter)<<7)
		}}
	stalled := make([]float64, 0, 40)
	for b := 0; b < cap(stalled); b++ {
		c := smcore.NewCore(0, &parkCfg, park, fetchMinter())
		for i := 0; i < 500; i++ {
			c.Tick()
		}
		start := time.Now()
		for i := 0; i < 900; i++ {
			c.Tick()
		}
		stalled = append(stalled, float64(time.Since(start).Nanoseconds())/900)
	}
	r.set("smcore.tick_stalled_ns", median(stalled), len(stalled))

	// cache: tag hit, reserve+fill miss path, MSHR allocate/release.
	hit := cache.NewTagArray(32, 4, 128, 1)
	for i := uint64(0); i < 128; i++ {
		hit.ReserveVictim(i * 128)
		hit.Fill(i * 128)
	}
	var i uint64
	setProbe(r, "cache.tag_hit_ns", perCall(200000, func() { hit.Access(i % 128 * 128); i++ }), 1)
	miss := cache.NewTagArray(64, 8, 128, 1)
	setProbe(r, "cache.tag_miss_ns", perCall(200000, func() {
		if _, ok := miss.ReserveVictim(i * 128); ok {
			miss.Fill(i * 128)
		}
		i++
	}), 1)
	mshr := cache.NewMSHR[int](32, 8)
	setProbe(r, "cache.mshr_ns", perCall(200000, func() {
		addr := i % 24
		if mshr.Allocate(addr, int(i)) == cache.AllocFullEntries {
			mshr.Release(addr)
		}
		if i%3 == 0 {
			mshr.Release(addr)
		}
		i++
	}), 1)

	// icnt: the saturated 15x12 request crossbar and the 12x15 reply
	// crossbar carrying five-flit load responses.
	xbar := func(name string, srcs, dsts, inCap, bytes int) float64 {
		n := icnt.NewNetwork(name, srcs, dsts, 32, inCap, 8, 8)
		pool := &mem.FetchPool{}
		var id uint64
		return perCall(5000, func() {
			for s := 0; s < srcs; s++ {
				id++
				f := pool.Get()
				f.ID, f.SizeBytes = id, 128
				if !n.Inject(f, s, int(id)%dsts, bytes) {
					pool.Put(f)
				}
			}
			n.Tick()
			for d := 0; d < dsts; d++ {
				if p, ok := n.Pop(d); ok {
					pool.Put(p.Fetch)
					n.Release(p)
				}
			}
		})
	}
	setProbe(r, "icnt.tick_req_ns", xbar("drive-req", 15, 12, 8, 8), 1)
	setProbe(r, "icnt.tick_reply_ns", xbar("drive-reply", 12, 15, 16, 136), 1)

	// l2: one partition fed every cycle, with a resident working set
	// (hits) and with lines never seen before (misses down to DRAM).
	base := config.Baseline()
	partition := func(lines uint64) float64 {
		part := l2.NewPartition(0, &base)
		pool := &mem.FetchPool{}
		part.SetFetchPool(pool)
		var k uint64
		tick := func() {
			for _, b := range part.Banks {
				if b.CanAccept() {
					k++
					f := pool.Get()
					line := k
					if lines > 0 {
						line = k % lines
					}
					*f = mem.Fetch{ID: k, Type: mem.DataRead, SizeBytes: 8, BankID: b.ID,
						Addr: (line*uint64(base.L2.NumBanks) + uint64(b.ID)) * uint64(base.L2.LineBytes)}
					b.Accept(f)
				}
			}
			part.TickL2()
			part.DRAM.Tick()
			for {
				f, b, ok := part.NextResponse()
				if !ok {
					break
				}
				part.ConsumeResponse(b)
				pool.Put(f)
			}
		}
		for w := 0; w < 4096; w++ {
			tick()
		}
		return perCall(20000, tick)
	}
	setProbe(r, "l2.tick_hit_ns", partition(256), 1)
	setProbe(r, "l2.tick_miss_ns", partition(0), 1)

	// dram: one channel on a row-friendly stream and on row-thrashing reads.
	channel := func(addr func(n uint64) uint64) float64 {
		c := dram.NewChannel(0, &base)
		var next uint64
		return perCall(50000, func() {
			if c.Push(&mem.Fetch{ID: next, Type: mem.DataRead, Addr: addr(next), SizeBytes: 128}) {
				next++
			}
			c.Tick()
			for {
				if _, ok := c.PopResponse(); !ok {
					break
				}
			}
		})
	}
	rowStride := uint64(base.DRAM.RowBytes) * uint64(base.DRAM.BanksPerChip) * 6
	setProbe(r, "dram.tick_stream_ns", channel(func(n uint64) uint64 { return n * 6 * 128 }), 1)
	setProbe(r, "dram.tick_random_ns", channel(func(n uint64) uint64 { return n * 2654435761 % 4096 * rowStride }), 1)

	// sched: 64 units rescheduling themselves a few cycles ahead.
	const units = 64
	wheel := sched.NewWheel(4096, units)
	for id := int32(0); id < units; id++ {
		wheel.Schedule(id, int64(1+id%7))
	}
	var cycle, scheduled int64
	due := make([]int32, 0, units)
	perCycle := perCall(50000, func() {
		cycle = wheel.Min()
		due = wheel.Due(cycle, due[:0])
		for _, id := range due {
			wheel.Schedule(id, cycle+1+int64(id%7))
			scheduled++
		}
	})
	setProbe(r, "sched.schedule_due_ns", perCycle*50000*probeBatches/float64(scheduled), 1)

	// obsv: one ten-gauge vector per cycle.
	prof := obsv.NewProfiler(make([]obsv.GaugeDef, 10))
	vals := make([]float64, 10)
	setProbe(r, "obsv.record_ns", perCall(200000, func() { prof.Record(vals) }), 1)
}

// timeDirectCalls times the cell pipeline's and the service's public
// functions one call at a time: what a submit pays per lookup for
// hashing, canonicalisation, decoding, encoding and the disk cache.
func timeDirectCalls(e *env) {
	r := e.res
	const us = 1e3
	spec, _ := trace.SpecByName("mm")
	setProbe(r, "trace.build_us", perCall(200, func() { spec.Build() }), us) //nolint:errcheck // a Table II spec builds
	setProbe(r, "trace.specid_us", perCall(2000, func() { spec.SpecID() }), us)
	setProbe(r, "config.resolve_us", perCall(2000, func() {
		cfg, _ := config.ByName("cost-effective-16+68")
		cfg.Validate() //nolint:errcheck // a preset validates
	}), us)
	cfg := config.Baseline()
	setProbe(r, "config.configid_us", perCall(500, func() { cfg.ConfigID() }), us)
	patch := patchOf(svcPatches[2])
	setProbe(r, "config.patch_us", perCall(500, func() { patch.Apply() }), us) //nolint:errcheck // a pool patch applies

	cell := genCell(e.seed, probeBase)
	job := cell.job()
	setProbe(r, "exp.cellid_us", perCall(500, func() { job.CellID() }), us)
	s := exp.NewScheduler()
	m, err := s.RunJob(job)
	if err != nil {
		r.fail("probe cell: %v", err)
		return
	}
	setProbe(r, "exp.memo_hit_us", perCall(500, func() { s.RunJob(job) }), us) //nolint:errcheck // memoized above

	wire, err := json.Marshal(cell.jobSpec())
	if err != nil {
		r.fail("probe spec: %v", err)
		return
	}
	setProbe(r, "api.spec_decode_us", perCall(500, func() {
		var js api.JobSpec
		json.Unmarshal(wire, &js) //nolint:errcheck // encoded above
	}), us)
	now := time.Now()
	done := api.Job{ID: cell.id, State: api.JobDone, Spec: cell.jobSpec(), Metrics: &m, Tier: exp.TierMemo,
		SubmittedAt: now, StartedAt: &now, FinishedAt: &now}
	var canned []byte
	setProbe(r, "api.job_encode_us", perCall(500, func() { canned, _ = json.Marshal(done) }), us)

	// client: the whole client path against a handler that only writes
	// canned bytes, so what is left is the client, HTTP and decoding.
	stub, err := serve(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned) //nolint:errcheck // a dropped connection shows as a client error
	}), func(context.Context) error { return nil })
	if err != nil {
		r.fail("stub server: %v", err)
		return
	}
	c := client.New(stub.url)
	setProbe(r, "client.stub_rtt_us", perCall(300, func() {
		if j, err := c.Job(context.Background(), cell.id); err != nil || j.ID != cell.id {
			r.fail("stub round trip: %v", err)
		}
	}), us)
	if err := stub.stop(); err != nil {
		r.fail("stub server: %v", err)
	}

	// server: the disk cache alone, writes beside reads.
	dc, err := server.NewDirCache(filepath.Join(e.tmp, "probe-cache"), 0, nil)
	if err != nil {
		r.fail("disk cache: %v", err)
		return
	}
	const entries = 200
	jobs := make([]exp.Job, entries)
	for i := range jobs {
		jobs[i] = genCell(e.seed, probeBase+1+i).job()
	}
	var k int
	r.set("server.cache_put_us", perCall(entries/probeBatches, func() { dc.Put(jobs[k], m); k++ })/us, probeBatches)
	written := k
	k = 0
	r.set("server.cache_get_us", perCall(written/probeBatches, func() {
		if _, ok := dc.Get(jobs[k]); !ok {
			r.fail("disk cache lost cell %d", k)
		}
		k++
	})/us, probeBatches)
	st := dc.Stats()
	r.set("server.cache_bytes_per_cell", ratio(float64(st.Bytes), float64(st.Entries)), st.Entries)
	if err := dc.Close(); err != nil {
		r.fail("disk cache: %v", err)
	}

	req := api.ExploreRequest{InlineSpecs: []trace.Spec{cell.spec}, Objective: api.ExploreObjective{TargetSpeedup: 1.05}}
	setProbe(r, "explore.compile_us", perCall(50, func() {
		if _, err := explore.Compile(req); err != nil {
			r.fail("explore.Compile: %v", err)
		}
	}), us)
}

// timeGpusimExec builds cmd/gpusim and runs one cell through it: the cold
// start a gpusim user pays per run, which the in-process workloads hide.
// The subprocess's metrics must equal the in-process ones.
func timeGpusimExec(e *env) error {
	bin := filepath.Join(e.tmp, "gpusim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gpusim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/gpusim: %w", err)
	}
	cell := tableCell("sad", "baseline", preset("baseline"), 0)
	var sub, inproc []float64
	var want string
	for i := 0; i < 3; i++ {
		out, err := runCell(nil, "", cell, false)
		if err != nil {
			return err
		}
		inproc, want = append(inproc, out.hostNs), out.hash

		e.res.attempt(1)
		start := time.Now()
		stdout, err := exec.Command(bin, "-bench", "sad", "-config", "baseline", "-json").Output()
		sub = append(sub, float64(time.Since(start).Nanoseconds()))
		if err != nil {
			return err
		}
		var m core.Metrics
		if err := json.NewDecoder(bytes.NewReader(stdout)).Decode(&m); err != nil {
			return err
		}
		data, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			e.res.fail("gpusim -json metrics differ from the in-process cell")
		}
	}
	e.res.set("cmd.gpusim_exec_ms", (median(sub)-median(inproc))/1e6, len(sub))
	return nil
}
