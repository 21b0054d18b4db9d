package exp

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/trace"
)

// leukocyte is the cheapest Table II benchmark; every test here runs it
// so simulations stay fast.
const cheapBench = "leukocyte"

func TestInlineConfigSharesPresetCell(t *testing.T) {
	s := NewScheduler()
	base, err := s.RunJob(Job{Config: PresetRef("baseline"), Workload: BenchRef(cheapBench)})
	if err != nil {
		t.Fatal(err)
	}
	// A byte-wise twin of the preset under another name, with leftover
	// values in mode-dead fields for good measure.
	twin := config.Baseline()
	twin.Name = "my-silicon"
	twin.FixedL1MissLatency = 555 // dead under ModeNormal
	m, err := s.RunJob(Job{Config: InlineConfig(twin), Workload: BenchRef(cheapBench)})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (inline config must share the preset's cell)", st.Simulated)
	}
	if m.Cycles != base.Cycles {
		t.Fatalf("inline-config metrics differ from the preset's (%d vs %d cycles)", m.Cycles, base.Cycles)
	}
}

func TestPatchSharesTwinCells(t *testing.T) {
	s := NewScheduler()
	// An empty patch is the preset's twin...
	if _, err := s.RunJob(Job{Config: PresetRef("baseline"), Workload: BenchRef(cheapBench)}); err != nil {
		t.Fatal(err)
	}
	var empty config.Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline"}`), &empty); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunJob(Job{Config: PatchRef(empty), Workload: BenchRef(cheapBench)}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (empty patch must share the preset's cell)", st.Simulated)
	}
	// ...and a real patch shares its handwritten inline twin's cell.
	var p config.Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":64}}`), &p); err != nil {
		t.Fatal(err)
	}
	hand := config.Baseline()
	hand.Name = "handwritten"
	hand.L1.MSHREntries = 64
	patchJob := Job{Config: PatchRef(p), Workload: BenchRef(cheapBench)}
	handJob := Job{Config: InlineConfig(hand), Workload: BenchRef(cheapBench)}
	if patchJob.CellID() != handJob.CellID() {
		t.Fatalf("patch cell %s != handwritten cell %s", patchJob.CellID(), handJob.CellID())
	}
}

func TestConfigCellIDStableAcrossRefForms(t *testing.T) {
	byName := Job{Config: PresetRef("baseline"), Workload: BenchRef(cheapBench)}
	inline := BenchJob(config.Baseline(), cheapBench)
	if byName.CellID() != inline.CellID() {
		t.Fatalf("CellID differs between preset and inline forms: %s vs %s", byName.CellID(), inline.CellID())
	}
	renamed := config.Baseline()
	renamed.Name = "other"
	if j := BenchJob(renamed, cheapBench); j.CellID() != byName.CellID() {
		t.Fatal("config name leaked into the cell identity")
	}
	tweaked := config.Baseline()
	tweaked.L1.MSHREntries++
	if j := BenchJob(tweaked, cheapBench); j.CellID() == byName.CellID() {
		t.Fatal("distinct configs share a cell identity")
	}
}

// TestConcurrentInlineConfigDedup submits differently-spelled copies of
// one hardware configuration from many goroutines; the engine must
// collapse them to a single simulation (run under -race in CI).
func TestConcurrentInlineConfigDedup(t *testing.T) {
	s := NewScheduler()
	var wg sync.WaitGroup
	cycles := make([]int64, 8)
	errs := make([]error, 8)
	for i := range cycles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var job Job
			switch i % 3 {
			case 0:
				job = Job{Config: PresetRef("baseline"), Workload: BenchRef(cheapBench)}
			case 1:
				cfg := config.Baseline()
				cfg.Name = strings.Repeat("x", i+1) // unique label per submitter
				cfg.IdealMemLatency = i             // dead under ModeNormal
				job = Job{Config: InlineConfig(cfg), Workload: BenchRef(cheapBench)}
			default:
				job = Job{Config: PatchRef(config.Patch{Base: "baseline"}), Workload: BenchRef(cheapBench)}
			}
			m, err := s.RunJob(job)
			cycles[i], errs[i] = m.Cycles, err
		}(i)
	}
	wg.Wait()
	for i := range cycles {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cycles[i] != cycles[0] {
			t.Fatalf("concurrent results differ: %v", cycles)
		}
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (identical configs must dedup)", st.Simulated)
	}
}

func TestMalformedConfigJobsFailWithoutPanic(t *testing.T) {
	s := NewScheduler()
	// An invalid inline config must surface as an error from the
	// fail-fast validation path, never a panic in core.New.
	bad := config.Baseline()
	bad.L2.NumBanks = 7
	if _, err := s.RunJob(BenchJob(bad, cheapBench)); err == nil || !strings.Contains(err.Error(), "banks") {
		t.Fatalf("err = %v, want banking validation detail", err)
	}
	// Unknown preset names list the valid ones.
	if _, err := s.RunJob(Job{Config: PresetRef("nope"), Workload: BenchRef(cheapBench)}); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("err = %v, want the known preset names", err)
	}
	// Patches with unknown bases or typo'd fields fail with detail.
	if _, err := s.RunJob(Job{Config: PatchRef(config.Patch{Base: "nope"}), Workload: BenchRef(cheapBench)}); err == nil {
		t.Fatal("unknown patch base accepted")
	}
	typo := config.Patch{Base: "baseline", Delta: json.RawMessage(`{"L1":{"MshrEntriez":1}}`)}
	if _, err := s.RunJob(Job{Config: PatchRef(typo), Workload: BenchRef(cheapBench)}); err == nil {
		t.Fatal("typo'd patch field accepted")
	}
	// A ref naming several kinds is rejected, and its identity must not
	// alias either individual form's cell.
	cfg := config.Baseline()
	both := Job{Config: ConfigRef{Preset: "baseline", Config: &cfg}, Workload: BenchRef(cheapBench)}
	if _, err := s.RunJob(both); err == nil {
		t.Fatal("ref with both preset and config accepted")
	}
	if both.CellID() == BenchJob(cfg, cheapBench).CellID() {
		t.Fatal("invalid both-set ref shares the valid config's cell identity")
	}
}

// TestInvalidConfigNeverPoisonsValidTwin mirrors PR 4's spec poisoning
// rule on the config axis: a config invalid only in a mode-dead field
// would canonicalize onto its valid twin's identity; it must key on its
// raw spelling instead, in either run order.
func TestInvalidConfigNeverPoisonsValidTwin(t *testing.T) {
	valid := config.FixedL1MissLatency(200)
	invalid := valid
	invalid.L2.SizeBytes = 768*1024 + 1 // dead under fixed-lat mode, but L2 geometry is junk under ModeNormal spellings
	invalid.Mode = config.ModeNormal    // ...which makes it invalid outright
	invalid.FixedL1MissLatency = 0

	// Order 1: invalid first must not block the valid config.
	s := NewScheduler()
	if _, err := s.RunJob(BenchJob(invalid, cheapBench)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := s.RunJob(BenchJob(valid, cheapBench)); err != nil {
		t.Fatalf("valid config poisoned by its invalid sibling: %v", err)
	}

	// Distinct identities even though only dead/invalid fields differ.
	deadInvalid := valid
	deadInvalid.Icnt.ClockMHz = -700 // dead under fixed-lat; Validate ignores it there
	if err := deadInvalid.Validate(); err != nil {
		// If validation ever starts covering dead fields, this test's
		// premise changes — surface that loudly.
		t.Fatalf("mode-dead field unexpectedly validated: %v", err)
	}
	if BenchJob(deadInvalid, cheapBench).CellID() != BenchJob(valid, cheapBench).CellID() {
		t.Fatal("mode-dead difference split the cell identity")
	}
}

// TestUnresolvableJobsGetNoCell extends the poisoning rule to every way a
// job can fail to resolve: it errors from RunJob, its CellID aliases no
// valid cell, and it never enters the memo — in particular a spelling
// invalid only in a dead field, whose canonical identity IS its valid
// twin's, neither poisons that cell nor is served from it.
func TestUnresolvableJobsGetNoCell(t *testing.T) {
	valid := SpecJob(config.Baseline(), leukSpec(t)) // PatRandomWS: StridePages is pattern-dead
	deadInvalid := leukSpec(t)
	deadInvalid.StridePages = -5 // rejected by Validate, zeroed by Identity
	cfg := config.Baseline()

	s := NewScheduler()
	if _, err := s.RunJob(valid); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"invalid only in a pattern-dead field", SpecJob(config.Baseline(), deadInvalid)},
		{"two config ref kinds", Job{Config: ConfigRef{Preset: "baseline", Config: &cfg}, Workload: valid.Workload}},
		{"unknown preset", Job{Config: PresetRef("nope"), Workload: valid.Workload}},
	} {
		if _, err := s.RunJob(tc.job); err == nil {
			t.Errorf("%s: RunJob accepted it", tc.name)
		}
		if _, err := tc.job.Resolve(); err == nil {
			t.Errorf("%s: resolved", tc.name)
		}
		if tc.job.CellID() == valid.CellID() {
			t.Errorf("%s: aliases the valid cell's ID %s", tc.name, valid.CellID())
		}
		if n := len(s.cells); n != 1 {
			t.Errorf("%s: memo holds %d cells, want only the valid one", tc.name, n)
		}
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Simulated)
	}
}

func TestSweepOverConfigRefAxes(t *testing.T) {
	s := NewScheduler()
	var p config.Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":64}}`), &p); err != nil {
		t.Fatal(err)
	}
	inlineTwin := config.Baseline()
	inlineTwin.Name = "twin"
	res, err := s.Sweep(
		[]ConfigRef{PresetRef("baseline"), InlineConfig(inlineTwin), PatchRef(p)},
		[]WorkloadRef{BenchRef(cheapBench)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// 3 columns requested, but the inline twin duplicates the preset.
	if st := s.Stats(); st.Simulated != 2 {
		t.Fatalf("simulated = %d, want 2 (inline twin column must dedup)", st.Simulated)
	}
	if res.Configs[0] != "baseline" || res.Configs[1] != "twin" || res.Configs[2] != "baseline-patched" {
		t.Fatalf("config labels = %v", res.Configs)
	}
	// Shared cells still answer under each column's own label.
	if m := res.Cells[0][1]; m.Config != "twin" {
		t.Fatalf("cell label = %q, want the column's own name", m.Config)
	}
	if res.Cells[0][0].Cycles != res.Cells[0][1].Cycles {
		t.Fatal("twin columns returned different metrics")
	}
	if res.Cells[0][2].Cycles == res.Cells[0][0].Cycles {
		t.Fatal("patched column aliased the baseline column")
	}
}

// TestCellIDGolden pins the cell content-address schema end to end — the
// exp-level twin of trace's SpecID and config's ConfigID golden tables.
// Job IDs, disk-cache filenames and the benchmark's goldens are keyed on
// these hashes, so they may only change together with a core.SimVersion
// bump. Every spelling of one cell must land on the same ID.
func TestCellIDGolden(t *testing.T) {
	patch := func(doc string) ConfigRef {
		var p config.Patch
		if err := json.Unmarshal([]byte(doc), &p); err != nil {
			t.Fatal(err)
		}
		return PatchRef(p)
	}
	mm, err := trace.SpecByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	const baselineMM = "4b07e5406195159b"
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"preset", Job{Config: PresetRef("baseline"), Workload: BenchRef("mm")}, baselineMM},
		{"inline twin", BenchJob(config.Baseline(), "mm"), baselineMM},
		{"empty-patch twin", Job{Config: patch(`{"base":"baseline"}`), Workload: BenchRef("mm")}, baselineMM},
		{"inline-spec twin", Job{Config: PresetRef("baseline"), Workload: SpecRef(mm)}, baselineMM},
		{"patched L1", Job{Config: patch(`{"base":"baseline","L1":{"MSHREntries":64}}`), Workload: BenchRef("mm")}, "3c8d21b5b70c54a9"},
		{"patched preset", Job{Config: patch(`{"base":"cost-effective-16+68","L2":{"MissQueueEntries":16}}`), Workload: BenchRef("dwt2d")}, "cda7b7004ee7dfc1"},
	} {
		if got := tc.job.CellID(); got != tc.want {
			t.Errorf("%s: CellID = %q, want %q (cell-identity schema changed — bump core.SimVersion)", tc.name, got, tc.want)
		}
	}
}
