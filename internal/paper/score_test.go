// Package paper scores the committed report golden against the paper's
// published numbers and claims, held here as data. CI pins
// testdata/golden/report.json byte for byte against a live run, so a claim
// checked against the golden is checked against the simulator.
//
// Every claim names its averaging rule and gets one status:
//
//   - holds: a magnitude within tight (5 %) of the paper's value, or a
//     predicate that is true;
//   - drift inside band: a magnitude off by more than tight but within
//     band (15 %);
//   - known deviation: off by more than band, or a false predicate, where
//     the claim cites the counter, probe or test that shows why;
//   - flipped: the same, with nothing cited.
//
// The bands are hand-set, one pair for every magnitude; ROADMAP item 11
// replaces them with seed-ensemble bands. The test fails on a flipped
// claim, on a known deviation that starts holding (its citation is then
// stale), and on any score that differs from testdata/golden/score.json;
// -update rewrites that file from this run.
package paper

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/score.json from this run")

const (
	tight = 0.05 // a magnitude within this relative distance of the paper holds
	band  = 0.15 // within this it drifts inside the band

	holds     = "holds"
	drift     = "drift inside band"
	deviation = "known deviation"
	flipped   = "flipped"
)

// report is the part of testdata/golden/report.json the claims read.
type report struct {
	Fig1 []struct {
		Bench                          string
		StallFrac, L2AHL, AML, DRAMEff float64
	}
	TableII []struct {
		Bench                              string
		PInf, PDRAM, PaperPInf, PaperPDRAM float64
	}
	Fig3 []struct {
		Bench   string
		Latency int
		NormIPC float64
	}
	Fig4, Fig5       []breakdown
	Fig7, Fig8, Fig9 []breakdown
	Fig10, Fig12     speedups
	Fig11            []struct {
		Bench    string
		CoreMHz  float64
		NormPerf float64
	}
	AsymmetricOnly float64
	Area           []struct {
		Config                               string
		StorageKB, CrossbarMM2, OverheadFrac float64
	}
}

type breakdown struct {
	Bench     string
	Labels    []string
	Fractions []float64
}

type speedups struct {
	Configs []string
	Rows    []struct {
		Bench    string
		Speedups []float64
	}
}

// column returns config's speedup on every benchmark.
func (s speedups) column(t *testing.T, config string) []float64 {
	c := slices.Index(s.Configs, config)
	if c < 0 {
		t.Fatalf("no %s column in %q", config, s.Configs)
	}
	out := make([]float64, len(s.Rows))
	for i, r := range s.Rows {
		out[i] = r.Speedups[c]
	}
	return out
}

// speedupOf returns config's speedup on bench.
func (s speedups) speedupOf(t *testing.T, config, bench string) float64 {
	for i, r := range s.Rows {
		if r.Bench == bench {
			return s.column(t, config)[i]
		}
	}
	t.Fatalf("no %s row", bench)
	return 0
}

// share returns the fraction labelled label on every benchmark; Figs. 4 and
// 5 carry no labels, and their "100 %" bucket is the last.
func share(t *testing.T, rows []breakdown, label string) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		j := len(r.Fractions) - 1
		if label != "full" {
			j = slices.Index(r.Labels, label)
		}
		if j < 0 {
			t.Fatalf("%s has no %s share", r.Bench, label)
		}
		out[i] = r.Fractions[j]
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// claim is one published number (a magnitude) or statement (a predicate)
// of the paper.
type claim struct {
	id, text string
	rule     string  // how the model's value is averaged or counted
	paper    float64 // a magnitude's published value; 0 for a predicate
	// model returns the model's value and whether a predicate holds; a
	// magnitude always reports true.
	model func() (float64, bool)
}

func magnitude(id, text, rule string, paper float64, model func() float64) claim {
	return claim{id, text, rule, paper, func() (float64, bool) { return model(), true }}
}

func predicate(id, text, rule string, model func() (float64, bool)) claim {
	return claim{id, text, rule, 0, model}
}

// scored is one row of score.json.
type scored struct {
	ID       string  `json:"id"`
	Claim    string  `json:"claim"`
	Rule     string  `json:"rule"`
	Paper    float64 `json:"paper,omitempty"`
	Model    float64 `json:"model"`
	Status   string  `json:"status"`
	Evidence string  `json:"evidence,omitempty"`
}

// status grades c; evidence is what makes a miss a known deviation.
func (c claim) status(evidence string) scored {
	v, ok := c.model()
	s := scored{ID: c.id, Claim: c.text, Rule: c.rule, Paper: c.paper,
		Model: math.Round(v*1e4) / 1e4, Evidence: evidence}
	off := band + 1 // a false predicate is outside any band
	switch {
	case ok && c.paper == 0:
		off = 0
	case ok:
		off = math.Abs(v/c.paper - 1)
	}
	switch {
	case off <= tight:
		s.Status = holds
	case off <= band:
		s.Status = drift
	case evidence != "":
		s.Status = deviation
	default:
		s.Status = flipped
	}
	return s
}

// tableII holds the paper's Table II: P∞ and P_DRAM per benchmark.
var tableII = map[string][2]float64{
	"mm": {4.90, 1.01}, "lbm": {3.40, 1.87}, "ss": {3.23, 1.00}, "nn": {3.11, 1.84},
	"hybridsort": {3.10, 1.24}, "cfd": {3.08, 1.06}, "pvr": {2.89, 1.01}, "bfs": {2.84, 1.00},
	"lavaMD": {2.70, 1.00}, "sc": {2.70, 1.13}, "bfs'": {2.10, 1.00}, "ii": {1.98, 1.00},
	"sradv1": {1.51, 1.19}, "sradv2": {1.49, 1.08}, "nw": {1.43, 1.09}, "stencil": {1.23, 1.20},
	"dwt2d": {1.20, 1.14}, "sad": {1.16, 1.09}, "leukocyte": {1.08, 1.00},
}

// evidence makes each listed claim, which misses its band, a known
// deviation: each cites the counter, probe or test that shows why.
var evidence = map[string]string{
	"fig1.l2_ahl":       latencyGap,
	"fig1.aml":          latencyGap,
	"fig1.dram_eff":     busBusy,
	"fig1.dram_eff_max": busBusy,
	"fig5.full": "Fig. 5 rows: the eight workloads whose P_DRAM is at most 1.03 (Table II: bfs, cfd, nw, sc, ii, " +
		"mm, pvr, ss) keep their DRAM scheduler queues full under 6 % of the time",
	"fig8.bp_icnt": l2Stalls,
	"fig8.port":    l2Stalls,
	"fig9.bp_l2": "core.Metrics.L1Stalls: the write-evict L1s rarely exhaust ways or MSHRs on the synthetic streams, " +
		"so cache and mshr stalls total 20.1 % against the paper's 52 % and bp-L2 takes the rest",
	"fig3.plateau_then_decline": "Fig. 3 rows: dwt2d, leukocyte, nw and sc keep 69 %, 85 %, 89 % and 79 % of their " +
		"zero-latency IPC at 100 cycles; they decline from the start, with no plateau",
	"fig3.aml_past_knee": "Fig. 3 and Fig. 1 rows: cfd keeps 95.5 % of its zero-latency IPC through 600 cycles, " +
		"past its baseline AML of 493",
	"fig11.retrograde": "Fig. 11 rows: the five bandwidth-bound benchmarks stay within 1 % of their 1.4 GHz " +
		"performance; the model has none of the real chip's clock-domain-crossing effects (ROADMAP, Parked)",
	"fig12.avg.cost-effective-16+68": "Fig. 12 rows: 16+68 gains 0.3 % over 16+48, where the paper gains 4.5 %; " +
		"the L2 stall counters charge 44.8 % to the data port and 22.1 % to crossbar backpressure (fig8.port), " +
		"so wider reply flits relieve little",
	"fig12.beats_hbm_geomean": "Fig. 12 rows: lavaMD's 0.60× and 0.59× on 16+48 and 16+68 weigh more under the " +
		"geometric mean; the paper averages arithmetically, and fig12.beats_hbm holds",
	"area.storage_kb":       areaStorage,
	"area.storage_overhead": areaStorage,
	"area.total_overhead":   areaStorage,
	"tableII.avg.p_inf":     unfitted,
}

const (
	latencyGap = "core.TestAMLIsLittlesLaw: AML equals the MSHR occupancy integral over its samples, and " +
		"core.TestL2HitLatencyByHand pins an uncongested L2 hit at 120 core cycles, so the excess is queueing, " +
		"not measurement; ROADMAP 9(b) splits it by hop"
	busBusy = "the DRAM data bus counts CL/WL waits as busy: per channel, BusBusyCycles is 1.37–2.12× " +
		"burst × (reads + writes) (EXPERIMENTS.md, PR 45); ROADMAP item 7 counts data cycles only"
	l2Stalls = "core.Metrics.L2Stalls (l2.StallLabels): a bank blocked behind its busy data port is charged to " +
		"port (lavaMD: 84.6 %) before crossbar backpressure; ROADMAP 1(b) checks the order against per-hop residences"
	areaStorage = "area.TestTableIIIMitigationLadderGolden prices every Table III rung, including the L1 " +
		"miss-queue and memory-pipeline entries the paper folds into existing structures: 135.2 KB at the " +
		"paper's density (area.TestStorageAccountingMatchesPaperDensity)"
	unfitted = "the 19 workloads are synthetic specs not fitted to Table II: the ledger's tableII_mape_pct " +
		"reads 13.95 % over the 38 values, and trace seeds alone move P-inf by up to 6.3 % (ROADMAP measurement 6)"
)

func init() {
	for _, id := range []string{
		"lbm.p_inf", "lbm.p_dram", "nn.p_inf", "hybridsort.p_inf", "hybridsort.p_dram", "pvr.p_inf",
		"bfs.p_inf", "lavaMD.p_inf", "sc.p_inf", "sradv1.p_dram", "sradv2.p_dram", "nw.p_inf",
		"stencil.p_dram", "dwt2d.p_inf",
	} {
		evidence["tableII."+id] = unfitted
	}
}

func claims(t *testing.T, r *report) []claim {
	fig1 := func(f func(i int) float64) []float64 {
		out := make([]float64, len(r.Fig1))
		for i := range r.Fig1 {
			out[i] = f(i)
		}
		return out
	}
	pInf := func(i int) float64 { return r.TableII[i].PInf }
	pDRAM := func(i int) float64 { return r.TableII[i].PDRAM }
	tableIIMean := func(f func(i int) float64) float64 {
		s := 0.0
		for i := range r.TableII {
			s += f(i)
		}
		return s / float64(len(r.TableII))
	}
	const perBench = "arithmetic mean over the 19 Table II benchmarks"
	cs := []claim{
		magnitude("fig1.stall", "issue stalls take 62 % of active cycles", perBench, 0.62,
			func() float64 { return mean(fig1(func(i int) float64 { return r.Fig1[i].StallFrac })) }),
		magnitude("fig1.l2_ahl", "L2 average hit latency is 303 core cycles", perBench, 303,
			func() float64 { return mean(fig1(func(i int) float64 { return r.Fig1[i].L2AHL })) }),
		magnitude("fig1.aml", "average memory latency is 452 core cycles", perBench, 452,
			func() float64 { return mean(fig1(func(i int) float64 { return r.Fig1[i].AML })) }),
		magnitude("fig1.dram_eff", "DRAM bandwidth efficiency averages 41 %", perBench, 0.41,
			func() float64 { return mean(fig1(func(i int) float64 { return r.Fig1[i].DRAMEff })) }),
		magnitude("fig1.dram_eff_max", "DRAM bandwidth efficiency peaks at 65 %", "maximum over the 19 benchmarks", 0.65,
			func() float64 { return slices.Max(fig1(func(i int) float64 { return r.Fig1[i].DRAMEff })) }),
		magnitude("tableII.avg.p_inf", "P∞ averages 2.38×", perBench, 2.38, func() float64 { return tableIIMean(pInf) }),
		magnitude("tableII.avg.p_dram", "P_DRAM averages 1.16×", perBench, 1.16, func() float64 { return tableIIMean(pDRAM) }),
		predicate("tableII.p_inf_dwarfs_p_dram", "an ideal hierarchy gains far more than an ideal DRAM (2.38× against 1.16×)",
			"mean P∞ gain over mean P_DRAM gain, arithmetic means; holds at 4× or more (the paper's is 8.6×)",
			func() (float64, bool) {
				x := (tableIIMean(pInf) - 1) / (tableIIMean(pDRAM) - 1)
				return x, x >= 4
			}),
	}
	for i, row := range r.TableII {
		paper, ok := tableII[row.Bench]
		if !ok {
			t.Fatalf("Table II row %s is not the paper's", row.Bench)
		}
		if row.PaperPInf != paper[0] || row.PaperPDRAM != paper[1] {
			t.Errorf("the report quotes %s's Table II as %g/%g, the paper says %g/%g",
				row.Bench, row.PaperPInf, row.PaperPDRAM, paper[0], paper[1])
		}
		cs = append(cs,
			magnitude("tableII."+row.Bench+".p_inf", fmt.Sprintf("%s's P∞ is %.2f×", row.Bench, paper[0]),
				"one benchmark", paper[0], func() float64 { return pInf(i) }),
			magnitude("tableII."+row.Bench+".p_dram", fmt.Sprintf("%s's P_DRAM is %.2f×", row.Bench, paper[1]),
				"one benchmark", paper[1], func() float64 { return pDRAM(i) }))
	}

	// Fig. 3: each curve by latency, and the baseline's AML per benchmark.
	curves := map[string][]float64{}
	var fig3Benches []string
	for _, p := range r.Fig3 {
		if len(curves[p.Bench]) == 0 {
			fig3Benches = append(fig3Benches, p.Bench)
		}
		if p.Latency != 50*len(curves[p.Bench]) {
			t.Fatalf("Fig. 3 %s: latency %d out of its 50-cycle ladder", p.Bench, p.Latency)
		}
		curves[p.Bench] = append(curves[p.Bench], p.NormIPC)
	}
	aml := map[string]float64{}
	for _, row := range r.Fig1 {
		aml[row.Bench] = row.AML
	}
	// knee is the last latency through which the curve stays within tight
	// of its value at latency 0.
	knee := func(c []float64) float64 {
		i := 1
		for i < len(c) && c[i] >= (1-tight)*c[0] {
			i++
		}
		return float64(50 * (i - 1))
	}
	count := func(f func(c []float64, bench string) bool) (float64, bool) {
		n := 0
		for _, b := range fig3Benches {
			if f(curves[b], b) {
				n++
			}
		}
		return float64(n), n == len(fig3Benches)
	}
	cs = append(cs,
		predicate("fig3.plateau_then_decline", "IPC plateaus at small fixed L1 miss latencies, then declines",
			"benchmarks of the 8 whose IPC at 100 cycles is within 5 % of its IPC at 0 and at 800 cycles at least 10 % below it; holds at 8",
			func() (float64, bool) {
				return count(func(c []float64, _ string) bool { return c[2] >= (1-tight)*c[0] && c[16] <= 0.9*c[0] })
			}),
		predicate("fig3.aml_past_knee", "the baseline's memory latency sits past the plateau",
			"benchmarks of the 8 whose baseline AML (Fig. 1) exceeds the last latency through which IPC stays within 5 % of its IPC at 0; holds at 8",
			func() (float64, bool) {
				return count(func(c []float64, b string) bool { return aml[b] > knee(c) })
			}),
		magnitude("fig4.full", "L2 access queues are completely full 46 % of their usage lifetime", perBench, 0.46,
			func() float64 { return mean(share(t, r.Fig4, "full")) }),
		magnitude("fig5.full", "DRAM scheduler queues are completely full 39 % of their usage lifetime", perBench, 0.39,
			func() float64 { return mean(share(t, r.Fig5, "full")) }),
		magnitude("fig7.str_mem", "structural memory hazards take 71 % of issue stalls, the largest share", perBench, 0.71,
			func() float64 { return mean(share(t, r.Fig7, "str-MEM")) }),
		magnitude("fig8.bp_icnt", "crossbar backpressure takes 42 % of L2 stalls, the largest share", perBench, 0.42,
			func() float64 { return mean(share(t, r.Fig8, "bp-ICNT")) }),
		magnitude("fig8.port", "the L2 data port takes 12 % of L2 stalls", perBench, 0.12,
			func() float64 { return mean(share(t, r.Fig8, "port")) }),
		magnitude("fig9.bp_l2", "L2 backpressure takes 48 % of L1 stalls, the largest share", perBench, 0.48,
			func() float64 { return mean(share(t, r.Fig9, "bp-L2")) }),
	)

	for _, p := range []struct {
		config string
		paper  float64
	}{{"L1-4x", 1.04}, {"L2-4x", 1.59}, {"DRAM-4x", 1.11}, {"L1+L2-4x", 1.69}, {"L2+DRAM-4x", 1.76}, {"All-4x", 1.90}} {
		cs = append(cs, magnitude("fig10.avg."+p.config, fmt.Sprintf("%s averages %.2f×", p.config, p.paper), perBench, p.paper,
			func() float64 { return mean(r.Fig10.column(t, p.config)) }))
	}
	cs = append(cs, predicate("fig10.ranking", "scaling the L2 alone beats scaling DRAM alone, which beats scaling the L1 alone",
		"arithmetic means; the value counts the 2 orderings that hold",
		func() (float64, bool) {
			l1, l2, dram := mean(r.Fig10.column(t, "L1-4x")), mean(r.Fig10.column(t, "L2-4x")), mean(r.Fig10.column(t, "DRAM-4x"))
			n := 0
			for _, ok := range []bool{l2 > dram, dram > l1} {
				if ok {
					n++
				}
			}
			return float64(n), n == 2
		}))

	cs = append(cs, predicate("fig11.retrograde", "bandwidth-bound benchmarks slow down, by up to 10 %, at higher core clocks",
		"lowest 1.6 GHz performance over the five bandwidth-bound benchmarks (all but leukocyte); holds below 0.99",
		func() (float64, bool) {
			lowest := math.Inf(1)
			for _, p := range r.Fig11 {
				if p.Bench != "leukocyte" && p.CoreMHz == 1600 {
					lowest = min(lowest, p.NormPerf)
				}
			}
			return lowest, lowest < 0.99
		}))

	costEffective := []string{"cost-effective-16+48", "cost-effective-16+68", "cost-effective-32+52"}
	for _, p := range []struct {
		config string
		paper  float64
	}{{costEffective[0], 1.234}, {costEffective[1], 1.29}, {costEffective[2], 1.257}, {"HBM", 1.11}} {
		cs = append(cs, magnitude("fig12.avg."+p.config, fmt.Sprintf("%s averages %.3g×", p.config, p.paper), perBench, p.paper,
			func() float64 { return mean(r.Fig12.column(t, p.config)) }))
	}
	beatsHBM := func(avg func([]float64) float64) func() (float64, bool) {
		return func() (float64, bool) {
			worst := math.Inf(1)
			for _, c := range costEffective {
				worst = min(worst, avg(r.Fig12.column(t, c))/avg(r.Fig12.column(t, "HBM")))
			}
			return worst, worst >= 1
		}
	}
	cs = append(cs,
		magnitude("fig12.asymmetric_only", "the 16+48 crossbar alone, without queue scaling, averages 1.155×", perBench, 1.155,
			func() float64 { return r.AsymmetricOnly }),
		predicate("fig12.crossbar_alone_below", "the crossbar alone is below every queue-scaled cost-effective point",
			"its arithmetic mean against each cost-effective column's; the value is the lowest column mean",
			func() (float64, bool) {
				lowest := math.Inf(1)
				for _, c := range costEffective {
					lowest = min(lowest, mean(r.Fig12.column(t, c)))
				}
				return lowest, r.AsymmetricOnly < lowest
			}),
		predicate("fig12.beats_hbm", "every cost-effective point matches or beats HBM",
			"arithmetic means; the value is the worst cost-effective mean over HBM's", beatsHBM(mean)),
		predicate("fig12.beats_hbm_geomean", "every cost-effective point matches or beats HBM, under the geometric mean",
			"geometric means; the value is the worst cost-effective mean over HBM's", beatsHBM(geomean)),
		magnitude("fig12.lavaMD_16+48", "lavaMD drops 37 % on 16+48 (0.63×)", "one benchmark", 0.63,
			func() float64 { return r.Fig12.speedupOf(t, costEffective[0], "lavaMD") }),
		predicate("fig12.lavaMD_loses", "lavaMD loses on the 16+48 request network", "one benchmark; holds below 1",
			func() (float64, bool) {
				x := r.Fig12.speedupOf(t, costEffective[0], "lavaMD")
				return x, x < 1
			}),
	)

	area := func(config string) (storageKB, wiresMM2, overhead float64) {
		for _, a := range r.Area {
			if a.Config == config {
				return a.StorageKB, a.CrossbarMM2, a.OverheadFrac
			}
		}
		t.Fatalf("no %s area row", config)
		return
	}
	cs = append(cs,
		magnitude("area.storage_kb", "the cost-effective points add 94 KB of storage", "cost-effective-16+48", 94,
			func() float64 { kb, _, _ := area(costEffective[0]); return kb }),
		magnitude("area.storage_overhead", "that storage is 7.48 mm², 1.1 % of the die", "cost-effective-16+48", 0.011,
			func() float64 { _, _, o := area(costEffective[0]); return o }),
		magnitude("area.wires_mm2", "20 B more flit width costs 3.62 mm² of wires", "cost-effective-16+68", 3.62,
			func() float64 { _, w, _ := area(costEffective[1]); return w }),
		magnitude("area.total_overhead", "storage and wires together are 1.6 % of the die", "cost-effective-16+68", 0.016,
			func() float64 { _, _, o := area(costEffective[1]); return o }),
	)
	return cs
}

// TestScorecard grades every claim against the report golden and holds
// the grades to testdata/golden/score.json.
func TestScorecard(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(golden, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Tight  float64        `json:"tight"`
		Band   float64        `json:"band"`
		Counts map[string]int `json:"counts"`
		Claims []scored       `json:"claims"`
	}
	got.Tight, got.Band, got.Counts = tight, band, map[string]int{}
	cited := map[string]bool{}
	for _, c := range claims(t, &r) {
		s := c.status(evidence[c.id])
		cited[c.id] = true
		got.Counts[s.Status]++
		got.Claims = append(got.Claims, s)
		switch {
		case s.Status == flipped:
			t.Errorf("%s flipped: %q reads %g (paper %g; %s)", s.ID, s.Claim, s.Model, s.Paper, s.Rule)
		case s.Evidence != "" && s.Status != deviation:
			t.Errorf("%s %s, but it cites a known deviation: drop the citation", s.ID, s.Status)
		}
	}
	for id := range evidence {
		if !cited[id] {
			t.Errorf("evidence for %s, which is no claim", id)
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join(golden, "score.json")
	if *update {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("the score differs from %s (counts %v); rerun with -update and review the diff", path, got.Counts)
	}
}
