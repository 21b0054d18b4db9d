// Package obsv is the in-simulation bottleneck profiler: a windowed,
// fixed-budget time series of per-level hierarchy gauges (L1 miss-queue
// and MSHR occupancy, crossbar port contention, L2 bank busy fraction,
// DRAM channel and row-buffer utilization) plus a derived per-level
// bottleneck verdict — which level saturated first and longest — the
// time-resolved view behind the paper's Fig. 5 analysis.
//
// The engine drives the profiler one gauge vector per core cycle
// (Record), or in bulk across idle spans the event engine jumps over,
// whose state is provably frozen (RecordN). Memory stays O(1) regardless of run length:
// the series holds at most MaxWindows windows, and when the budget fills,
// adjacent windows merge pairwise and the window size doubles — early
// cycles keep their resolution until late cycles need the space.
//
// Everything here is deterministic: no clocks, no randomness, and JSON
// encodings that are byte-identical across runs and worker counts for
// the same simulation.
package obsv

import "math"

// Schema versions the Profile JSON; bump on incompatible changes.
const Schema = 1

// MaxWindows is the fixed sample budget: the series never holds more
// windows than this, no matter how many cycles the run spans.
const MaxWindows = 512

// SaturationThreshold is the per-window utilization at which a level
// counts as saturated for the verdict.
const SaturationThreshold = 0.9

// GaugeDef names one sampled gauge: the hierarchy level it belongs to
// and what it measures. Values are normalized occupancies/fractions in
// [0, 1] so levels are comparable.
type GaugeDef struct {
	Level string // "l1", "xbar-req", "l2", "xbar-reply", "dram"
	Gauge string // e.g. "miss-queue", "mshr", "ports-busy"
}

// Profiler accumulates gauge vectors into the windowed series. Create
// one per simulation with NewProfiler and attach it to the engine; it is
// not safe for concurrent use (the engine is single-threaded per cell).
type Profiler struct {
	defs         []GaugeDef
	windowCycles int64       // cycles per completed window (doubles as the budget fills)
	cur          []float64   // per-gauge sum over the accumulating window
	curCycles    int64       // cycles accumulated into cur
	windows      [][]float64 // completed window sums, each len(defs)
	cycles       int64       // total cycles recorded
}

// NewProfiler builds a profiler for the given gauge set.
func NewProfiler(defs []GaugeDef) *Profiler {
	d := make([]GaugeDef, len(defs))
	copy(d, defs)
	return &Profiler{
		defs:         d,
		windowCycles: 1,
		cur:          make([]float64, len(d)),
	}
}

// Cycles returns the total number of cycles recorded so far.
func (p *Profiler) Cycles() int64 { return p.cycles }

// Record accumulates one cycle's gauge vector.
func (p *Profiler) Record(vals []float64) { p.RecordN(vals, 1) }

// RecordN accumulates the same gauge vector for n consecutive cycles —
// the bulk path for the spans the event engine jumps, where no component
// state mutates and the frozen vector is exactly what per-cycle sampling
// would have observed. A non-zero gauge is added cycle by cycle, not as
// v×n: the window sums must carry the very float roundings n Records
// leave, or a mean sitting on a round6 tie prints differently. So a jump
// costs a profiled run one add per non-zero gauge per skipped cycle —
// the adds of the n Records it stands for, without their sampling.
func (p *Profiler) RecordN(vals []float64, n int64) {
	if n <= 0 {
		return
	}
	p.cycles += n
	for n > 0 {
		take := p.windowCycles - p.curCycles
		if take > n {
			take = n
		}
		for i, v := range vals {
			if v == 0 {
				continue
			}
			sum := p.cur[i]
			for k := int64(0); k < take; k++ {
				sum += v
			}
			p.cur[i] = sum
		}
		p.curCycles += take
		n -= take
		if p.curCycles == p.windowCycles {
			p.flush()
		}
	}
}

// flush closes the accumulating window; at the budget, adjacent windows
// merge pairwise and the window size doubles.
func (p *Profiler) flush() {
	w := make([]float64, len(p.cur))
	copy(w, p.cur)
	p.windows = append(p.windows, w)
	for i := range p.cur {
		p.cur[i] = 0
	}
	p.curCycles = 0
	if len(p.windows) == MaxWindows {
		half := p.windows[:MaxWindows/2]
		for i := range half {
			a, b := p.windows[2*i], p.windows[2*i+1]
			for k := range a {
				a[k] += b[k]
			}
			half[i] = a
		}
		p.windows = half
		p.windowCycles *= 2
	}
}

// Series is one gauge's per-window means, in window order. The last
// window may cover fewer than WindowCycles cycles (a partial tail).
type Series struct {
	Level string    `json:"level"`
	Gauge string    `json:"gauge"`
	Mean  []float64 `json:"mean"`
}

// LevelVerdict summarizes one hierarchy level's saturation behavior.
type LevelVerdict struct {
	Level                string  `json:"level"`
	MeanUtilization      float64 `json:"meanUtilization"`
	PeakUtilization      float64 `json:"peakUtilization"`
	SaturatedWindows     int     `json:"saturatedWindows"`
	FirstSaturatedWindow int     `json:"firstSaturatedWindow"` // -1 when never saturated
}

// Verdict names the bottleneck level and shows the evidence per level.
type Verdict struct {
	Bottleneck string         `json:"bottleneck"`
	Reason     string         `json:"reason"`
	Threshold  float64        `json:"saturationThreshold"`
	Levels     []LevelVerdict `json:"levels"`
}

// Profile is the wire form of a completed profiling run: the windowed
// time series plus the derived verdict. It is what GET /v1/jobs/{id}/profile
// returns and what the disk cache stores alongside the metrics.
type Profile struct {
	Schema       int      `json:"schema"`
	Cycles       int64    `json:"cycles"`
	WindowCycles int64    `json:"windowCycles"`
	Windows      int      `json:"windows"`
	Series       []Series `json:"series"`
	Verdict      Verdict  `json:"verdict"`
}

// round6 trims float noise so profiles stay compact; the rounding is
// deterministic, so byte-identity across runs is preserved.
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// Snapshot freezes the series into its wire form: per-window means per
// gauge, a partial tail window if one is accumulating, and the verdict.
func (p *Profiler) Snapshot() *Profile {
	nw := len(p.windows)
	partial := p.curCycles > 0
	if partial {
		nw++
	}
	// windowCount[i] = cycles covered by window i (the tail may be short).
	counts := make([]int64, nw)
	for i := range counts {
		counts[i] = p.windowCycles
	}
	if partial {
		counts[nw-1] = p.curCycles
	}
	prof := &Profile{
		Schema:       Schema,
		Cycles:       p.cycles,
		WindowCycles: p.windowCycles,
		Windows:      nw,
	}
	means := make([][]float64, len(p.defs)) // gauge → per-window means
	for gi, def := range p.defs {
		m := make([]float64, nw)
		for wi := 0; wi < nw; wi++ {
			var sum float64
			if partial && wi == nw-1 {
				sum = p.cur[gi]
			} else {
				sum = p.windows[wi][gi]
			}
			m[wi] = round6(sum / float64(counts[wi]))
		}
		means[gi] = m
		prof.Series = append(prof.Series, Series{Level: def.Level, Gauge: def.Gauge, Mean: m})
	}
	prof.Verdict = p.verdict(means, counts)
	return prof
}

// verdict derives the per-level saturation summary: a level's per-window
// utilization is the max over its gauges, and the bottleneck is the level
// saturated for the most cycles (earliest onset breaks ties, then higher
// mean); when nothing saturates, the highest sustained utilization wins.
func (p *Profiler) verdict(means [][]float64, counts []int64) Verdict {
	v := Verdict{Threshold: SaturationThreshold}
	// Preserve first-appearance level order from the gauge defs.
	var order []string
	gaugesOf := make(map[string][]int)
	for gi, def := range p.defs {
		if _, seen := gaugesOf[def.Level]; !seen {
			order = append(order, def.Level)
		}
		gaugesOf[def.Level] = append(gaugesOf[def.Level], gi)
	}
	nw := len(counts)
	var total int64
	for _, c := range counts {
		total += c
	}
	type scored struct {
		lv        LevelVerdict
		satCycles int64
	}
	var rows []scored
	for _, level := range order {
		lv := LevelVerdict{Level: level, FirstSaturatedWindow: -1}
		var meanSum float64
		var satCycles int64
		for wi := 0; wi < nw; wi++ {
			util := 0.0
			for _, gi := range gaugesOf[level] {
				if means[gi][wi] > util {
					util = means[gi][wi]
				}
			}
			meanSum += util * float64(counts[wi])
			if util > lv.PeakUtilization {
				lv.PeakUtilization = util
			}
			if util >= SaturationThreshold {
				lv.SaturatedWindows++
				satCycles += counts[wi]
				if lv.FirstSaturatedWindow < 0 {
					lv.FirstSaturatedWindow = wi
				}
			}
		}
		if total > 0 {
			lv.MeanUtilization = round6(meanSum / float64(total))
		}
		lv.PeakUtilization = round6(lv.PeakUtilization)
		rows = append(rows, scored{lv: lv, satCycles: satCycles})
		v.Levels = append(v.Levels, lv)
	}
	if len(rows) == 0 {
		return v
	}
	best, saturated := 0, false
	for i, r := range rows {
		if r.satCycles > 0 {
			saturated = true
		}
		b := rows[best]
		switch {
		case r.satCycles != b.satCycles:
			if r.satCycles > b.satCycles {
				best = i
			}
		case r.satCycles > 0 && r.lv.FirstSaturatedWindow != b.lv.FirstSaturatedWindow:
			if r.lv.FirstSaturatedWindow < b.lv.FirstSaturatedWindow {
				best = i
			}
		case r.lv.MeanUtilization > b.lv.MeanUtilization:
			best = i
		}
	}
	v.Bottleneck = rows[best].lv.Level
	if saturated {
		v.Reason = "saturated longest (and earliest among ties) above the threshold"
	} else {
		v.Reason = "no level saturated; highest sustained utilization"
	}
	return v
}
