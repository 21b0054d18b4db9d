package smcore

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
)

// TestHeavyReleaseWaitsForDirtyScan pins a known model defect, kept because
// the committed goldens (benchmark/testdata, testdata/golden) were written
// by it. issueTick's memo re-scans on heavy-pipe expiry only when the stall
// it replays is str-ALU. With one warp parked in blockedStr and another in
// blockedHeavy the recorded stall is str-MEM (it outranks str-ALU), so when
// heavyBusyUntil passes the parked heavy instruction, which could issue,
// does not — until something unrelated dirties the scan. In the engine the
// goldens came from that was usually the next register clear landing, so a
// tick a register result lands on re-scans in that one state, and the
// landing calendar (Core.landAt) exists for nothing else.
//
// The correct behaviour is for the heavy instruction to issue on the cycle
// the pipe frees (cycle 10 below): re-scan whenever nBlockedHeavy > 0 and
// heavyBusyUntil <= now. That changes simulated results (sad@baseline runs
// 34,109 cycles with the defect), so it waits for a change that regenerates
// the goldens and bumps core.SimVersion. This test fails if the defect is
// fixed (the issue moves to cycle 10) and if the landing rule is dropped
// (it never comes: nothing else dirties the scan).
func TestHeavyReleaseWaitsForDirtyScan(t *testing.T) {
	cfg := smallConfig() // ModeNormal with nothing wired behind the miss queue
	cfg.Core.WarpsPerCore = 3
	cfg.Core.MemPipelineWidth = 2
	cfg.Core.ALULatency = 12
	cfg.L1.MissQueueEntries = 1
	load := Inst{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1}
	load2 := Inst{Kind: OpLoad, Dest: 2, Src1: -1, Src2: -1}
	heavy := Inst{Kind: OpHeavyALU, Dest: 3, Src1: -1, Src2: -1}
	heavy2 := Inst{Kind: OpHeavyALU, Dest: 4, Src1: -1, Src2: -1}
	alu := Inst{Kind: OpALU, Dest: 5, Src1: -1, Src2: -1}
	wl := &Workload{
		Name:    "heavy-behind-str",
		Program: Program{Body: []Inst{load, load2, heavy, heavy2, alu}, Iters: 1, CodeBase: 1 << 40},
		Addr: func(buf []uint64, _, _, _, instIdx int) []uint64 {
			return append(buf, uint64(instIdx)<<12, uint64(instIdx)<<12|128) // two lines: a full pipeline
		},
	}
	c := NewCore(0, &cfg, wl, testFetchFn())
	// Each warp starts at its own place in the body with its i-buffer
	// hand-loaded, and the fetch stage is off: a fetch dirties the scan.
	c.fetchMask[0] = 0
	for i, at := range []int{0, 2, 4} {
		c.warps[i].bodyIdx, c.warps[i].issued = at, int64(at)
		c.fillIBuf(i, wl.Program.Body[at:min(at+2, 5)]...)
	}

	// Cycle 1: warp 0's first load fills the memory pipeline. Cycle 2: its
	// first line leaves for the miss queue, which is then full for good, so
	// the second load parks in blockedStr behind a frozen LSU head; warp 1's
	// first heavy op issues and holds the pipe until cycle 10. Cycle 3: its
	// second parks in blockedHeavy; warp 2's ALU op issues, landing at 15.
	// Cycle 4: the failed scan records str-MEM.
	for c.now < 4 {
		c.Tick()
	}
	nStr, nHeavy := bits.OnesCount64(c.blockedStr[0]), bits.OnesCount64(c.blockedHeavy[0])
	if nStr != 1 || nHeavy != 1 || c.lastStall != StallStrMem || c.heavyBusyUntil != 10 || c.issueDirty {
		t.Fatalf("cycle 4: blockedStr %d, blockedHeavy %d, stall %d, heavy pipe busy until %d, dirty %v; want 1, 1, str-MEM, 10, false",
			nStr, nHeavy, c.lastStall, c.heavyBusyUntil, c.issueDirty)
	}
	issuedAt := int64(0)
	for c.now < 40 && issuedAt == 0 {
		c.Tick()
		if c.warps[1].issued == 4 {
			issuedAt = c.now
		}
	}
	// 15 = 3 + ALULatency, the first result to land once the pipe is free
	// (the first heavy op's own lands at 18).
	if issuedAt != 15 {
		t.Fatalf("second heavy op issued at cycle %d (0: never), want 15: the pipe frees at 10, the next register result lands at 15", issuedAt)
	}
	if got := c.Stats.IssueStalls; got[StallStrALU] != 0 || got[StallStrMem] != 11 {
		t.Fatalf("stalls %v: cycles 4-14 must all read str-MEM, the defect's visible face", got)
	}
}

// refBoard is the scoreboard the timestamp one replaced, written naively:
// two pending masks and a line count per warp, and a list of register
// clears, each applied at the top of the tick it is due on.
type refBoard struct {
	pendingLoad, pendingALU []uint64
	loadCount               [][NumRegs]int
	clears                  []refClear // unordered
}

type refClear struct {
	at        int64
	warp, reg int
	load      bool
}

func (r *refBoard) tick(now int64) {
	n := 0
	for _, cl := range r.clears {
		switch {
		case cl.at != now:
			r.clears[n] = cl
			n++
		case !cl.load:
			r.pendingALU[cl.warp] &^= 1 << uint(cl.reg)
		default:
			if r.loadCount[cl.warp][cl.reg]--; r.loadCount[cl.warp][cl.reg] == 0 {
				r.pendingLoad[cl.warp] &^= 1 << uint(cl.reg)
			}
		}
	}
	r.clears = r.clears[:n]
}

// clearsBy returns the cycle the last of warp's pending registers in regs
// (of one kind) clears: 0 with none pending, math.MaxInt64 while a load
// still has lines whose clear is not scheduled.
func (r *refBoard) clearsBy(warp int, load bool, regs uint64) int64 {
	pending := r.pendingALU[warp]
	if load {
		pending = r.pendingLoad[warp]
	}
	var by int64
	for reg := 0; reg < NumRegs; reg++ {
		if pending&regs&(1<<uint(reg)) == 0 {
			continue
		}
		scheduled, last := 0, int64(0)
		for _, cl := range r.clears {
			if cl.warp == warp && cl.reg == reg && cl.load == load {
				scheduled++
				last = max(last, cl.at)
			}
		}
		if load && scheduled < r.loadCount[warp][reg] {
			return math.MaxInt64
		}
		by = max(by, last)
	}
	return by
}

// sbMemory stands in for everything behind the miss queues in ModeNormal:
// every read is answered after a delay drawn from its address, one reply a
// cycle, so the lines of one load come back in any order.
type sbMemory struct {
	c        *Core
	maxDelay int64
	inflight []sbReply
}

// sbReply is a read in flight and the cycle its reply is due.
type sbReply struct {
	f   *mem.Fetch
	due int64
}

func (m *sbMemory) inject(f *mem.Fetch) bool {
	if f.Type.NeedsReply() {
		due := m.c.now + 1 + int64(f.Addr>>7*2654435761%uint64(m.maxDelay))
		m.inflight = append(m.inflight, sbReply{f, due})
	}
	return true
}

// nextDue is the cycle the next reply can be handed over.
func (m *sbMemory) nextDue() int64 {
	due := int64(math.MaxInt64)
	for _, r := range m.inflight {
		due = min(due, r.due)
	}
	return max(due, m.c.now+1)
}

// deliver hands the core the oldest reply due by the tick about to run,
// which consumes it, and returns it.
func (m *sbMemory) deliver() *mem.Fetch {
	best := -1
	for i, r := range m.inflight {
		if r.due <= m.c.now+1 && (best < 0 || r.due < m.inflight[best].due ||
			r.due == m.inflight[best].due && r.f.ID < m.inflight[best].f.ID) {
			best = i
		}
	}
	if best < 0 || !m.c.respFIFO.Empty() {
		return nil
	}
	f := m.inflight[best].f
	m.inflight = append(m.inflight[:best], m.inflight[best+1:]...)
	m.c.AcceptResponse(f)
	return f
}

// TestScoreboardMatchesClearList is the timestamp scoreboard's exactness
// property. Random programs (light and heavy arithmetic, stores, loads of
// one to four lines, registers scattered over the file) run in all three
// modes under random latencies — 0, which is clamped to 1, the heavy
// latency, misses beyond the landing calendar — on two cores: one ticked
// every cycle and shadowed by refBoard, which learns of each issue and each
// resolved load line by watching the core from outside, and one that jumps
// as the engine does (NextWake, SkipTo). Every load line is a different
// address, so the L1 never hits and a line resolves exactly when the LSU
// stand-in says. After every tick: an instruction issued only if the
// reference saw no hazard, both hazard verdicts agree for every ready warp,
// every parked warp sits in the set the reference's first failing check
// names (and after a scan that issued nothing every hazarded warp is
// parked), NextWake is never later than the reference's next release or —
// once every warp has issued its last instruction — its last clear, which
// it must then name exactly, the core is done exactly when the reference
// has no clear left and nothing is queued, and the jumping core drains on
// the same cycle with the same statistics.
func TestScoreboardMatchesClearList(t *testing.T) {
	regs := []int8{1, 2, 3, 8, 30, 31, 40, 47, 55, 62}
	rng := rand.New(rand.NewSource(20170425))
	parkedTicks, jumped, multiLine := 0, int64(0), 0
	for trial := 0; trial < 60; trial++ {
		cfg := smallConfig()
		cfg.Mode = []config.Mode{config.ModeNormal, config.ModeFixedL1MissLat, config.ModeInfiniteBW}[trial%3]
		cfg.Core.WarpsPerCore = 1 + rng.Intn(6)
		cfg.Core.MemPipelineWidth = 4 + rng.Intn(4)
		cfg.Core.ALULatency = []int{0, 1, 2, 4, 7, heavyALULatency, 40}[rng.Intn(7)]
		cfg.L1.HitLatency = []int{0, 1, 2, 5}[rng.Intn(4)]
		cfg.L1.MSHREntries = 2 + rng.Intn(8)
		cfg.L1.MissQueueEntries = 1 + rng.Intn(4)
		cfg.FixedL1MissLatency = []int{0, 10, 100, 300, 5000 /* beyond the landing calendar */}[rng.Intn(5)]
		cfg.IdealL2HitLatency, cfg.IdealMemLatency = 1+rng.Intn(150), 150+rng.Intn(200)
		var body []Inst
		for n := 3 + rng.Intn(10); n > 0; n-- {
			reg := func() int8 {
				if rng.Intn(3) == 0 {
					return -1
				}
				return regs[rng.Intn(len(regs))]
			}
			in := Inst{Kind: OpKind(rng.Intn(4)), Dest: regs[rng.Intn(len(regs))], Src1: reg(), Src2: reg()}
			if in.Kind == OpStore {
				in.Dest = -1
			}
			body = append(body, in)
		}
		salt := rng.Uint64()
		lines := func(warp, iter, inst int) int {
			return 1 + int((uint64(warp*64+iter)*64+uint64(inst)+salt)*0x9e3779b97f4a7c15>>62)
		}
		wl := &Workload{
			Name:    "scoreboard",
			Program: Program{Body: body, Iters: 1 + rng.Intn(3), CodeBase: 1 << 40},
			Addr: func(buf []uint64, _, warp, iter, inst int) []uint64 {
				for k := 0; k < lines(warp, iter, inst); k++ {
					buf = append(buf, uint64(((warp*64+iter)*64+inst)*4+k)<<7) // inst = addr>>9 & 63
				}
				return buf
			},
		}
		idealLat := func(addr uint64) int64 {
			if addr>>7*0x9e3779b97f4a7c15>>63 == 0 {
				return int64(cfg.IdealL2HitLatency)
			}
			return int64(cfg.IdealMemLatency)
		}
		newCore := func() (*Core, *sbMemory) {
			c := NewCore(0, &cfg, wl, testFetchFn())
			m := &sbMemory{c: c, maxDelay: 1 + int64(rng.Intn(120))}
			c.SetIdealLatency(idealLat)
			if cfg.Mode == config.ModeNormal {
				c.SetInject(m.inject)
			}
			return c, m
		}
		a, am := newCore()
		b, bm := newCore()
		bm.maxDelay = am.maxDelay
		nw := len(a.warps)
		ref := &refBoard{pendingLoad: make([]uint64, nw), pendingALU: make([]uint64, nw), loadCount: make([][NumRegs]int, nw)}
		clamp := func(lat int) int64 { return int64(max(lat, 1)) }
		hitLat := cfg.L1.HitLatency

		for !a.Done() {
			if a.now > 200000 {
				t.Fatalf("trial %d: not drained after %d cycles: %s", trial, a.now, a.OutstandingWork())
			}
			now := a.now + 1
			ref.tick(now)
			// What this tick's LSU will resolve, seen from outside.
			if f := am.deliver(); f != nil && f.Type == mem.DataRead {
				ref.clears = append(ref.clears, refClear{now + clamp(hitLat), f.WarpID, int(body[f.Addr>>9&63].Dest), true})
			}
			if head, ok := a.memQ.Peek(); ok && cfg.Mode != config.ModeNormal && !head.store {
				lat := cfg.FixedL1MissLatency
				if cfg.Mode == config.ModeInfiniteBW {
					lat = int(idealLat(head.line))
				}
				ref.clears = append(ref.clears, refClear{now + clamp(lat+hitLat), int(head.warpID), int(body[head.line>>9&63].Dest), true})
			}
			issuedBefore := make([]int64, nw)
			for i := range a.warps {
				issuedBefore[i] = a.warps[i].issued
			}
			ready := a.hasInst[0] // the warps this tick's scan can see
			a.Tick()
			for i := range a.warps {
				w := &a.warps[i]
				if w.issued == issuedBefore[i] {
					continue
				}
				at := int(issuedBefore[i] % int64(len(body)))
				in, mask := body[at], a.regMasks[at]
				if (ref.pendingLoad[i]|ref.pendingALU[i])&mask != 0 {
					t.Fatalf("trial %d cycle %d: warp %d issued %+v over a hazard the reference holds (load %#x alu %#x)",
						trial, now, i, in, ref.pendingLoad[i]&mask, ref.pendingALU[i]&mask)
				}
				switch in.Kind {
				case OpALU:
					ref.pendingALU[i] |= 1 << uint(in.Dest)
					ref.clears = append(ref.clears, refClear{now + clamp(cfg.Core.ALULatency), i, int(in.Dest), false})
				case OpHeavyALU:
					ref.pendingALU[i] |= 1 << uint(in.Dest)
					ref.clears = append(ref.clears, refClear{now + heavyALULatency, i, int(in.Dest), false})
				case OpLoad:
					n := lines(i, int(issuedBefore[i])/len(body), at)
					ref.pendingLoad[i] |= 1 << uint(in.Dest)
					ref.loadCount[i][in.Dest] = n
					if n > 1 {
						multiLine++
					}
				}
			}
			scanFailed := a.Stats.Issued == sumIssued(issuedBefore)
			nextRelease := int64(math.MaxInt64)
			for i := range a.warps {
				w := &a.warps[i]
				bit := uint64(1) << uint(i)
				inMem, inALU := a.blockedMem.warps[0]&bit != 0, a.blockedALU.warps[0]&bit != 0
				if w.ibufLen == 0 {
					if inMem || inALU {
						t.Fatalf("trial %d cycle %d: warp %d parked with an empty i-buffer", trial, now, i)
					}
					continue
				}
				mask := a.regMasks[w.bodyIdx]
				refMem, refALU := ref.pendingLoad[i]&mask != 0, ref.pendingALU[i]&mask != 0
				pl, pa := w.pendingLoad, w.pendingALU
				if gotMem, gotALU := a.hazard(w, &pl, mask) != 0, a.hazard(w, &pa, mask) != 0; gotMem != refMem || gotALU != refALU {
					t.Fatalf("trial %d cycle %d: warp %d hazards (load %v, alu %v), reference (load %v, alu %v)",
						trial, now, i, gotMem, gotALU, refMem, refALU)
				}
				if inMem != (inMem && refMem) || inALU != (inALU && refALU && !refMem) {
					t.Fatalf("trial %d cycle %d: warp %d parked (mem %v, alu %v), reference hazards (load %v, alu %v)",
						trial, now, i, inMem, inALU, refMem, refALU)
				}
				if scanFailed && ready&bit != 0 && (refMem && !inMem || !refMem && refALU && !inALU) {
					t.Fatalf("trial %d cycle %d: nothing issued and warp %d is not parked (mem %v, alu %v) on its hazard (load %v, alu %v)",
						trial, now, i, inMem, inALU, refMem, refALU)
				}
				if inMem {
					nextRelease = min(nextRelease, ref.clearsBy(i, true, mask))
				}
				if inALU {
					nextRelease = min(nextRelease, ref.clearsBy(i, false, mask))
				}
				if inMem || inALU {
					parkedTicks++
				}
			}
			lastClear := int64(0)
			for _, cl := range ref.clears {
				lastClear = max(lastClear, cl.at)
			}
			wake := a.NextWake()
			if wake > nextRelease {
				t.Fatalf("trial %d cycle %d: NextWake %d, the reference releases a parked warp at %d", trial, now, wake, nextRelease)
			}
			quiet := a.memQ.Empty() && a.missQ.Empty() && a.iMissQ.Empty() && a.respFIFO.Empty() && a.mshr.Len() == 0 && !anySet(a.iPending)
			if a.aliveCount == 0 && quiet && !a.issueDirty && lastClear > 0 && wake != lastClear {
				t.Fatalf("trial %d cycle %d: every warp has issued its last instruction and NextWake is %d, want the last clear, %d",
					trial, now, wake, lastClear)
			}
			if want := a.aliveCount == 0 && quiet && lastClear == 0; a.Done() != want {
				t.Fatalf("trial %d cycle %d: done %v, reference (no clear left, nothing queued) %v", trial, now, a.Done(), want)
			}
		}

		// The jumping twin: tick when NextWake or the memory says so.
		for !b.Done() {
			if b.now > a.now {
				t.Fatalf("trial %d: jumping core still busy at cycle %d, the ticked one drained at %d", trial, b.now, a.now)
			}
			bm.deliver()
			b.Tick()
			if to := min(b.NextWake(), bm.nextDue()) - 1; to > b.now && !b.Done() {
				jumped += to - b.now
				b.SkipTo(to)
			}
		}
		if a.now != b.now || !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("trial %d: ticked core drained at %d, jumping core at %d\nticked:  %+v\njumping: %+v", trial, a.now, b.now, a.Stats, b.Stats)
		}
	}
	if parkedTicks == 0 || jumped == 0 || multiLine == 0 {
		t.Fatalf("vacuous: %d parked warp-ticks, %d cycles jumped, %d multi-line loads", parkedTicks, jumped, multiLine)
	}
}

func sumIssued(per []int64) (n int64) {
	for _, v := range per {
		n += v
	}
	return n
}
