package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) of Python 3, default exclusive method.
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestLowerQuartileIsFastestPassForFewPasses(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{9, 5}, 5},          // never below the fastest sample
		{[]float64{9, 5, 7}, 5},       // three passes: the fastest
		{[]float64{4, 1, 3, 2}, 1.25}, // from four on it interpolates
		{[]float64{7, 1, 6, 2, 5, 3, 4}, 2},
	} {
		if got := lowerQuartile(c.v); !near(got, c.want) {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		q     float64
		value float64
	}{
		{5, 0.50, 3},      // too few for any tail: the median
		{40, 0.75, 30},    // 10 beyond p75
		{150, 0.90, 135},  // 15 beyond p90, only 7.5 beyond p95
		{600, 0.95, 570},  // 30 beyond p95, 6 beyond p99
		{1000, 0.99, 990}, // exactly 10 beyond p99
		{5000, 0.99, 4950},
	} {
		value, q := tailPercentile(ramp(c.n))
		if q != c.q || value != c.value {
			t.Errorf("tailPercentile(1..%d) = %v at p%v, want %v at p%v", c.n, value, 100*q, c.value, 100*c.q)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // sticks out of the root by 30
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 20}, // grandchild
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 50},  // wholly inside b
		{ID: 7, Parent: 0, Name: "lone", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	// root: 100 - |[10,60] u [90,100]| = 100 - 60 = 40.
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 40, 5: 10, 6: 15, 7: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	// Properly nested, non-overlapping children: the tree's self times
	// add up to the root's duration exactly.
	nested := []span{
		{ID: 1, Parent: 0, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Start: 0, End: 300},
		{ID: 3, Parent: 1, Start: 300, End: 950},
		{ID: 4, Parent: 3, Start: 400, End: 900},
	}
	if gap := maxSelfGap(nested); gap != 0 {
		t.Errorf("maxSelfGap of a nested tree = %v, want 0", gap)
	}
	if gap := maxSelfGap(spans); gap == 0 {
		t.Error("maxSelfGap missed the overlapping children")
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin(0, "req", "x")
	r.end(id)
	r.add(id, "req", "y", time.Now(), time.Now())
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded something")
	}
	rec := newRecorder()
	root := rec.begin(0, "req", "root")
	child := rec.begin(root, "req", "child")
	rec.end(child)
	rec.end(root)
	s := rec.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].End < s[1].Start {
		t.Fatalf("recorded spans %+v", s)
	}
}

func TestSeedFixesPoolAndOpOrder(t *testing.T) {
	ids := func(seed uint64) []string {
		var out []string
		for i := 0; i < 200; i++ {
			out = append(out, genCell(seed, i).id)
		}
		return out
	}
	a, b, other := ids(7), ids(7), ids(8)
	seen := make(map[string]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs between two pools of one seed", i)
		}
		if seen[a[i]] {
			t.Fatalf("cell %d repeats an earlier cell of its pool", i)
		}
		seen[a[i]] = true
	}
	for i, id := range other {
		if seen[id] {
			t.Fatalf("cell %d of seed 8 is also a cell of seed 7", i)
		}
	}
	for i := 0; i < 200; i++ {
		if err := genSpec(7, i).Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}

	kinds := make(map[opKind]int)
	differ := false
	for k := 0; k < 4000; k++ {
		k1, p1 := mixedOp(7, k)
		k2, p2 := mixedOp(7, k)
		if k1 != k2 || p1 != p2 {
			t.Fatalf("op %d differs between two draws of one seed", k)
		}
		k3, _ := mixedOp(8, k)
		differ = differ || k3 != k1
		kinds[k1]++
	}
	if !differ {
		t.Error("seeds 7 and 8 draw the same op order")
	}
	for kind, share := range map[opKind]float64{opResubmit: .60, opNewCell: .20, opGetJob: .10, opStats: .05, opList: .05} {
		if got := float64(kinds[kind]) / 4000; math.Abs(got-share) > 0.03 {
			t.Errorf("op kind %d is %.3f of the mix, want %.2f", kind, got, share)
		}
	}

	// The cells workloads reseed Table II streams; seed 0 leaves them be.
	for _, w := range []string{"cells-membound", "cells-issue", "cells-idle"} {
		c0, c0b, c1 := cellList(w, 0), cellList(w, 0), cellList(w, 1)
		for i := range c0 {
			if c0[i].spec != c0b[i].spec || c0[i].name != c1[i].name {
				t.Fatalf("%s cell %d is not a function of the seed", w, i)
			}
		}
		if c0[0].spec.Seed == c1[0].spec.Seed {
			t.Errorf("%s: seed 1 left the first cell's stream unchanged", w)
		}
	}
}

// benchmarkManifest is BENCHMARK.json as the driver reads it.
type benchmarkManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Error("BENCHMARK.json differs from the metric table; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	var m benchmarkManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 ||
		len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2-8, 1-16, 1-128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds != runSeconds || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", m.RunSeconds, m.Paths)
	}

	// Both directions: what a run emits is what the file lists. A run
	// emits every metric of the table once (newRunResult), split by the
	// trace flag (finalLine).
	listed := make(map[string]bool)
	seen := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if listed[n] {
			t.Errorf("name %q is used twice", n)
		}
		listed[n] = true
	}
	for _, w := range m.Workloads {
		seen(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Errorf("%d workloads listed, the harness runs %d", len(m.Workloads), len(workloadDefs))
	}
	setup := false
	for _, e := range m.EndToEnd {
		seen(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 || (e.Better != lower && e.Better != higher) {
			t.Errorf("end-to-end metric %+v breaks the contract", e)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, l := range m.PerLayer {
		seen(l.Name)
		if !unit.MatchString(l.Unit) || (l.Better != lower && l.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", l)
		}
	}

	for trace, list := range map[int]int{0: len(m.EndToEnd), 1: len(m.PerLayer)} {
		r := newRunResult("report", 0, runSeconds, trace)
		line, err := r.finalLine()
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct           *bool
			Attempted, Failed *int
			Metrics           map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatal(err)
		}
		if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != list {
			t.Errorf("trace %d: result line %s", trace, line)
		}
		for n, v := range out.Metrics {
			d, ok := metricByName(n)
			if !ok || !listed[n] || d.E2E != (trace == 0) || v.Unit != d.Unit || v.Value == nil {
				t.Errorf("trace %d emits %s (%+v), which BENCHMARK.json does not list there", trace, n, v)
			}
		}
	}

	// Every layer of the program has a metric.
	layers := make(map[string]bool)
	for _, d := range layerMetrics {
		layers[layerOf(d.Name)] = true
	}
	for _, l := range append([]string{"cmd"}, shareLayers...) {
		if !layers[l] {
			t.Errorf("layer %s has no metric", l)
		}
	}
}

func TestSetRejectsUnlistedMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("set accepted a metric that is not in the table")
		}
	}()
	newRunResult("report", 0, 1, 0).set("no.such_metric", 1, 1)
}

func TestCalibrationKernelIsFrozen(t *testing.T) {
	if got := calibKernel(); got != calibChecksum {
		t.Fatalf("calibKernel() = %#x, want %#x: the kernel must never change", got, uint64(calibChecksum))
	}
}

func TestClassifyStacks(t *testing.T) {
	for _, c := range []struct {
		funcs []string
		want  string
	}{
		{[]string{"gpumembw/internal/smcore.(*Core).Tick", "gpumembw/internal/core.(*GPU).runEvent", "main.runCell"}, "smcore"},
		{[]string{"runtime.memmove", "gpumembw/internal/cache.(*MSHR[go.shape.*gpumembw/internal/mem.Fetch]).Allocate", "gpumembw/internal/l2.(*Bank).Tick"}, "cache"},
		{[]string{"gpumembw/internal/stats.(*OccupancyHist).Observe", "gpumembw/internal/dram.(*Channel).Tick"}, "dram"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "gpumembw/internal/smcore.NewCore"}, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"encoding/json.Marshal", "gpumembw/internal/server.writeJSON", "net/http.HandlerFunc.ServeHTTP"}, "server"},
		{[]string{"net/http.(*Client).do", "gpumembw/client.(*Client).doFull", "main.(*serviceWorkload).submitWait"}, "client"},
		{[]string{"main.calibKernel", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.funcs); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.funcs, got, c.want)
		}
	}
}

func TestCPUSharesOfARealProfile(t *testing.T) {
	p, err := cpuShares(func() {
		for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
			calibKernel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range p.shares {
		total += s
	}
	if p.samples < 5 || !near(total, 1) || p.shares["other"]+p.shares["gc"] < 0.99 {
		t.Errorf("%d samples, shares %v", p.samples, p.shares)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "lat", Unit: "ms", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "thr", Unit: "1/s", Better: higher, Bound: 0.10}
	exact := metricDef{Name: "count", Unit: "count", Better: lower, Exact: true}
	for _, c := range []struct {
		d       metricDef
		a, b    []float64
		trusted bool
		want    string
	}{
		{lat, []float64{100, 101, 99}, []float64{104, 105, 103}, true, unchanged},
		{lat, []float64{100, 101, 99}, []float64{115, 116, 114}, true, worse},
		{lat, []float64{100, 101, 99}, []float64{80, 81, 79}, true, better},
		{thr, []float64{100, 101, 99}, []float64{80, 81, 79}, true, worse},
		{thr, []float64{100}, []float64{120}, true, better},
		{lat, []float64{100, 101, 99}, []float64{115, 116, 114}, false, unresolved}, // calibration too wide
		{lat, []float64{80, 100, 125}, []float64{90, 110, 130}, true, unresolved},   // spread wider than the bound, runs overlap
		{lat, []float64{80, 100, 125}, []float64{60, 70, 79}, true, better},         // wide, but every run reads better
		{exact, []float64{57, 57}, []float64{57, 57}, false, unchanged},             // counts need no clock
		{exact, []float64{57, 57}, []float64{58, 58}, true, worse},
	} {
		if got := judge(c.d, c.a, c.b, c.trusted); got != c.want {
			t.Errorf("judge(%s, %v, %v, trusted=%v) = %s, want %s", c.d.Name, c.a, c.b, c.trusted, got, c.want)
		}
	}
}

func TestGoldensAreCommitted(t *testing.T) {
	gold, err := loadCellGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"cells-membound", "cells-issue", "cells-idle"} {
		for _, c := range cellList(w, 0) {
			if len(gold[c.name]) != 64 {
				t.Errorf("no golden sha256 for cell %s", c.name)
			}
		}
	}
	text, js, err := loadReportGoldens()
	if err != nil || len(text) == 0 || !json.Valid(js) {
		t.Errorf("report goldens: %d text bytes, valid JSON %v, err %v", len(text), json.Valid(js), err)
	}
}
