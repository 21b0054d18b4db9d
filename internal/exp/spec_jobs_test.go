package exp

import (
	"strings"
	"sync"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/trace"
)

// leukSpec returns the registered spec of the cheapest Table II
// benchmark, optionally respelled (renamed, zero-value defaults made
// explicit) without changing its identity.
func leukSpec(t *testing.T) trace.Spec {
	t.Helper()
	sp, err := trace.SpecByName("leukocyte")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestInlineSpecSharesPresetCell(t *testing.T) {
	s := NewScheduler()
	base, err := s.RunJob(BenchJob(config.Baseline(), "leukocyte"))
	if err != nil {
		t.Fatal(err)
	}
	sp := leukSpec(t)
	sp.Name = "my-kernel" // labels are excluded from identity
	sp.LinesPerAccess = 1 // explicit build-time default
	m, err := s.RunJob(SpecJob(config.Baseline(), sp))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (inline spec must share the preset's cell)", st.Simulated)
	}
	if m.Cycles != base.Cycles {
		t.Fatalf("inline-spec metrics differ from the preset's (%d vs %d cycles)", m.Cycles, base.Cycles)
	}
}

func TestCellIDStableAcrossRefForms(t *testing.T) {
	sp := leukSpec(t)
	byName := BenchJob(config.Baseline(), "leukocyte")
	inline := SpecJob(config.Baseline(), sp)
	if byName.CellID() != inline.CellID() {
		t.Fatalf("CellID differs between name and inline forms: %s vs %s", byName.CellID(), inline.CellID())
	}
	sp.Name, sp.Suite = "other", "Other"
	if renamed := SpecJob(config.Baseline(), sp); renamed.CellID() != byName.CellID() {
		t.Fatal("spec labels leaked into the cell identity")
	}
	sp.WarpsPerCore++
	if tweaked := SpecJob(config.Baseline(), sp); tweaked.CellID() == byName.CellID() {
		t.Fatal("distinct specs share a cell identity")
	}
	// The config half still distinguishes cells for the same workload.
	if other := BenchJob(config.InfiniteBW(), "leukocyte"); other.CellID() == byName.CellID() {
		t.Fatal("distinct configs share a cell identity")
	}
}

// TestConcurrentInlineSpecDedup submits differently-spelled copies of one
// inline workload from many goroutines; the engine must collapse them to
// a single simulation (run under -race in CI).
func TestConcurrentInlineSpecDedup(t *testing.T) {
	s := NewScheduler()
	base := leukSpec(t)
	var wg sync.WaitGroup
	cycles := make([]int64, 8)
	errs := make([]error, 8)
	for i := range cycles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := base
			sp.Name = strings.Repeat("x", i+1) // unique label per submitter
			if i%2 == 1 {
				sp.LinesPerAccess = 1 // equivalent explicit default
			}
			m, err := s.RunJob(SpecJob(config.Baseline(), sp))
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
		t.Fatalf("simulated = %d, want 1 (identical inline specs must dedup)", st.Simulated)
	}
}

func TestMalformedJobsFailWithoutPanic(t *testing.T) {
	s := NewScheduler()
	// Inline spec that fails validation: must surface as an error from
	// the error-returning Build path (the gpusimd regression: a malformed
	// spec reaching a worker must never panic the daemon).
	bad := trace.Spec{Name: "bad", Iters: 0, LoadsPerIter: 1, Pattern: trace.PatStream}
	if _, err := s.RunJob(SpecJob(config.Baseline(), bad)); err == nil || !strings.Contains(err.Error(), "Iters") {
		t.Fatalf("err = %v, want Iters validation detail", err)
	}
	// Ref naming both kinds is rejected, not silently resolved — and its
	// memoized error must key on the name, never on the spec's identity,
	// or it would poison the valid spec's cell for later callers.
	sp := leukSpec(t)
	both := Job{Config: InlineConfig(config.Baseline()), Workload: WorkloadRef{Bench: "leukocyte", Spec: &sp}}
	if _, err := s.RunJob(both); err == nil {
		t.Fatal("ref with both bench and spec accepted")
	}
	if both.CellID() == SpecJob(config.Baseline(), sp).CellID() {
		t.Fatal("invalid both-set ref shares the valid spec's cell identity")
	}
	if _, err := s.RunJob(SpecJob(config.Baseline(), sp)); err != nil {
		t.Fatalf("valid spec run poisoned by earlier both-set ref: %v", err)
	}
	// Invalid configs fail validation instead of simulating garbage.
	cfg := config.Baseline()
	cfg.L2.NumBanks = 7 // not divisible across 6 partitions
	if _, err := s.RunJob(BenchJob(cfg, "leukocyte")); err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("err = %v, want config validation detail", err)
	}
}

// TestInvalidSpellingNeverAliasesValidCell: a spec invalid only in a
// pattern-dead field canonicalizes to its valid twin's identity, but it
// must key (and memoize its error) separately — in either run order.
func TestInvalidSpellingNeverAliasesValidCell(t *testing.T) {
	valid := leukSpec(t) // PatRandomWS: StridePages is pattern-dead
	invalid := valid
	invalid.StridePages = -5 // rejected by Validate, zeroed by Canonical
	if invalid.Identity() != valid.Identity() {
		t.Fatal("test premise broken: spellings no longer share an identity")
	}

	// Invalid first: its memoized error must not poison the valid cell.
	s := NewScheduler()
	if _, err := s.RunJob(SpecJob(config.Baseline(), invalid)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := s.RunJob(SpecJob(config.Baseline(), valid)); err != nil {
		t.Fatalf("valid spec poisoned by invalid spelling: %v", err)
	}

	// Valid first: the invalid spelling must error, not be served the
	// valid cell's metrics.
	s2 := NewScheduler()
	if _, err := s2.RunJob(SpecJob(config.Baseline(), valid)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunJob(SpecJob(config.Baseline(), invalid)); err == nil {
		t.Fatal("invalid spec served the valid cell's metrics")
	}
}

func TestUnnamedInlineSpecDefaultsLabel(t *testing.T) {
	sp := leukSpec(t)
	sp.Name = ""
	ref := SpecRef(sp)
	if ref.Label() != "custom" {
		t.Fatalf("label = %q, want custom", ref.Label())
	}
	if sp, err := ref.Resolve(); err != nil || sp.Name != "custom" {
		t.Fatalf("unnamed inline spec resolved to %q, %v", sp.Name, err)
	}
	// The default label does not perturb identity.
	named := leukSpec(t)
	a := SpecJob(config.Baseline(), sp)
	b := SpecJob(config.Baseline(), named)
	if a.CellID() != b.CellID() {
		t.Fatal("unnamed inline spec has a different identity")
	}
}

func TestSweepGridAndDedup(t *testing.T) {
	s := NewScheduler(WithWorkers(4))
	variant := leukSpec(t)
	variant.Name = "leukocyte-tlp12"
	variant.WarpsPerCore = 12
	cfgs := SweepConfigs([]config.Config{config.Baseline(), config.InfiniteBW()})
	workloads := []WorkloadRef{
		BenchRef("leukocyte"),
		SpecRef(leukSpec(t)), // same cell as the preset row
		SpecRef(variant),
	}
	res, err := s.Sweep(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 || len(res.Cells[0]) != 2 {
		t.Fatalf("grid shape = %dx%d, want 3x2", len(res.Cells), len(res.Cells[0]))
	}
	// 3 workloads × 2 configs requested, but row 1 duplicates row 0.
	if st := s.Stats(); st.Simulated != 4 {
		t.Fatalf("simulated = %d, want 4 (duplicate inline row must dedup)", st.Simulated)
	}
	if res.Workloads[0] != "leukocyte" || res.Workloads[2] != "leukocyte-tlp12" {
		t.Fatalf("workload labels = %v", res.Workloads)
	}
	if res.Configs[1] != "P-inf" {
		t.Fatalf("config labels = %v", res.Configs)
	}
	// Shared cells still answer under each row/column's own labels.
	if m := res.Cells[1][0]; m.Benchmark != "leukocyte" || m.Config != "baseline" {
		t.Fatalf("cell labels = %s/%s", m.Benchmark, m.Config)
	}
	if res.Cells[0][0].Cycles != res.Cells[1][0].Cycles {
		t.Fatal("identical rows returned different metrics")
	}
	if res.Cells[2][0].Cycles == res.Cells[0][0].Cycles {
		t.Fatal("variant row aliased the preset row")
	}
	sp := res.Speedups(0)
	if sp[0][0] != 1 {
		t.Fatalf("baseline column speedup = %g, want 1", sp[0][0])
	}
	if sp[0][1] <= 0 {
		t.Fatalf("P-inf speedup = %g", sp[0][1])
	}
}

func TestSweepValidatesBeforeSimulating(t *testing.T) {
	s := NewScheduler()
	if _, err := s.Sweep(nil, []WorkloadRef{BenchRef("mm")}); err == nil {
		t.Fatal("empty config axis accepted")
	}
	if _, err := s.Sweep(SweepConfigs([]config.Config{config.Baseline()}), nil); err == nil {
		t.Fatal("empty workload axis accepted")
	}
	bad := trace.Spec{Name: "bad", Iters: 0}
	_, err := s.Sweep(SweepConfigs([]config.Config{config.Baseline()}), []WorkloadRef{BenchRef("mm"), SpecRef(bad)})
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	if st := s.Stats(); st.Simulated != 0 {
		t.Fatalf("simulated = %d before rejecting the sweep", st.Simulated)
	}
}
