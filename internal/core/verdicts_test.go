package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/trace"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/golden/verdicts.json from this run")

// verdictRow scores one workload's baseline bottleneck verdict against the
// simulator's own ideal experiments, read from the committed report golden:
// the Fig. 10 speedup of scaling each single level 4× alone, and Table II's
// P_DRAM, the speedup of an ideal DRAM. The verdict agrees when it names the
// level whose 4× scaling alone pays most.
type verdictRow struct {
	Bench   string  `json:"bench"`
	Verdict string  `json:"verdict"`
	L1x4    float64 `json:"l1_4x"`
	L2x4    float64 `json:"l2_4x"`
	DRAMx4  float64 `json:"dram_4x"`
	PDRAM   float64 `json:"pDRAM"`
	Best    string  `json:"best"`
	Agrees  bool    `json:"agrees"`
}

type verdictTable struct {
	Agree int          `json:"agree"`
	Of    int          `json:"of"`
	Rows  []verdictRow `json:"rows"`
}

// TestVerdictAgreesWithFig10 runs every Table II workload once at baseline
// with the profiler attached and scores its verdict against the report
// golden's single-level Fig. 10 columns (L1-4x, L2-4x, DRAM-4x). It fails
// when fewer verdicts agree than testdata/golden/verdicts.json records;
// -update rewrites that file from this run. The report golden is pinned to
// a live run by CI, so the scores are scores of the simulator.
func TestVerdictAgreesWithFig10(t *testing.T) {
	var report struct {
		TableII []struct {
			Bench string  `json:"bench"`
			PDRAM float64 `json:"pDRAM"`
		} `json:"tableII"`
		Fig10 struct {
			Configs []string `json:"configs"`
			Rows    []struct {
				Bench    string    `json:"bench"`
				Speedups []float64 `json:"speedups"`
			} `json:"rows"`
		} `json:"fig10"`
	}
	golden := filepath.Join("..", "..", "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(golden, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	column := map[string]int{}
	for i, c := range report.Fig10.Configs {
		column[c] = i
	}
	levels := []struct{ level, config string }{{"l1", "L1-4x"}, {"l2", "L2-4x"}, {"dram", "DRAM-4x"}}
	for _, lv := range levels {
		if _, ok := column[lv.config]; !ok {
			t.Fatalf("the report golden's Fig. 10 has no %s column", lv.config)
		}
	}
	speedups := map[string][]float64{}
	for _, r := range report.Fig10.Rows {
		speedups[r.Bench] = r.Speedups
	}
	pDRAM := map[string]float64{}
	for _, r := range report.TableII {
		pDRAM[r.Bench] = r.PDRAM
	}

	var got verdictTable
	wls := trace.Workloads()
	for _, name := range trace.Names() {
		s, ok := speedups[name]
		if !ok {
			t.Fatalf("the report golden's Fig. 10 has no %s row", name)
		}
		_, prof, err := RunWorkloadProfiled(config.Baseline(), wls[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		row := verdictRow{
			Bench: name, Verdict: prof.Verdict.Bottleneck, PDRAM: pDRAM[name],
			L1x4: s[column["L1-4x"]], L2x4: s[column["L2-4x"]], DRAMx4: s[column["DRAM-4x"]],
		}
		best := 0.0
		for _, lv := range levels {
			if x := s[column[lv.config]]; x > best {
				best, row.Best = x, lv.level
			}
		}
		row.Agrees = row.Verdict == row.Best
		if row.Agrees {
			got.Agree++
		}
		got.Rows = append(got.Rows, row)
	}
	got.Of = len(got.Rows)

	path := filepath.Join(golden, "verdicts.json")
	if *updateVerdicts {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want verdictTable
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Agree < want.Agree {
		t.Errorf("%d of %d verdicts name the level whose 4x scaling pays most; testdata/golden/verdicts.json records %d", got.Agree, got.Of, want.Agree)
	}
	t.Logf("%d of %d verdicts agree with Fig. 10", got.Agree, got.Of)
}
