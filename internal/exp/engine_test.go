package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"gpumembw/internal/config"
)

// engineReport renders a cheap Fig. 3 subset the way Collect does it:
// every cell is pre-run on the worker pool via RunJobs, then assembly
// reads only the memo cache. Six cells, so a workers > 1 run genuinely
// exercises concurrent simulation.
func engineReport(t *testing.T, workers int) []byte {
	t.Helper()
	benches := []string{"dwt2d", "leukocyte"}
	lats := []int{0, 300}
	s := NewScheduler(WithWorkers(workers))
	var jobs []Job
	for _, b := range benches {
		jobs = append(jobs, BenchJob(config.Baseline(), b))
		for _, lat := range lats {
			jobs = append(jobs, BenchJob(config.FixedL1MissLatency(lat), b))
		}
	}
	if err := s.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	pts, err := s.fig3(fig3Grid(benches, lats))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != int64(len(jobs)) {
		t.Fatalf("simulated = %d, want %d (assembly must hit only the cache)", st.Simulated, len(jobs))
	}
	var buf bytes.Buffer
	writeFig3(&buf, pts)
	return buf.Bytes()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := engineReport(t, 1)
	parallel := engineReport(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
}

func TestRunJobsDeduplicatesSharedCells(t *testing.T) {
	s := NewScheduler(WithWorkers(4))
	jobs := []Job{
		BenchJob(config.Baseline(), "leukocyte"),
		BenchJob(config.Baseline(), "leukocyte"), // duplicate in the slice
		BenchJob(config.InfiniteBW(), "leukocyte"),
	}
	if err := s.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 2 {
		t.Fatalf("simulated = %d, want 2 (baseline cell shared)", st.Simulated)
	}
	// The speedup denominator must come from the cache, not a re-run.
	if _, err := s.Speedup(config.InfiniteBW(), "leukocyte"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Simulated != 2 {
		t.Fatalf("speedup re-simulated: %+v", st)
	}
	if st.CacheHits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", st.CacheHits)
	}
}

func TestConcurrentRunSimulatesOnce(t *testing.T) {
	s := NewScheduler()
	var wg sync.WaitGroup
	cycles := make([]int64, 8)
	for i := range cycles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.RunJob(BenchJob(config.Baseline(), "leukocyte"))
			if err != nil {
				t.Error(err)
				return
			}
			cycles[i] = m.Cycles
		}(i)
	}
	wg.Wait()
	for _, c := range cycles[1:] {
		if c != cycles[0] {
			t.Fatalf("concurrent results differ: %v", cycles)
		}
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (in-flight callers must wait, not re-run)", st.Simulated)
	}
}

func TestRunJobsReportsFirstErrorInJobOrder(t *testing.T) {
	s := NewScheduler(WithWorkers(4))
	jobs := []Job{
		BenchJob(config.Baseline(), "bogus-a"),
		BenchJob(config.Baseline(), "bogus-b"),
	}
	err := s.RunJobs(jobs)
	if err == nil || !strings.Contains(err.Error(), "bogus-a") {
		t.Fatalf("err = %v, want first-in-order failure (bogus-a)", err)
	}
}

func TestJobsForDeduplicatesAndOrders(t *testing.T) {
	// fig1 and fig4 share the full baseline row; requesting both must not
	// double it.
	jobs := JobsFor([]string{"fig1", "fig4"})
	if len(jobs) != len(Benches()) {
		t.Fatalf("jobs = %d, want %d (one baseline cell per benchmark)", len(jobs), len(Benches()))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.Config.Label() != "baseline" {
			t.Fatalf("unexpected config %q", j.Config.Label())
		}
		if seen[j.Workload.Bench] {
			t.Fatalf("duplicate cell for %q", j.Workload.Bench)
		}
		seen[j.Workload.Bench] = true
	}
	// Simulation-free sections expand to nothing.
	if jobs := JobsFor([]string{"tableI", "tableIII", "area"}); len(jobs) != 0 {
		t.Fatalf("static sections expanded to %d jobs", len(jobs))
	}
	// The full report is bounded and deduplicated.
	all := JobsFor(nil)
	ids := map[string]bool{}
	for _, j := range all {
		if ids[j.CellID()] {
			t.Fatalf("duplicate job %s/%s in full expansion", j.Config.Label(), j.Workload.Label())
		}
		ids[j.CellID()] = true
	}
}

func TestJobsForMatchesFigureCacheKeys(t *testing.T) {
	// Every cell a section reads must be covered by JobsFor, or assembly
	// after RunJobs would silently re-simulate serially. Probe the two
	// sections that rename configs on the fly (fig3, fig11).
	for _, tc := range []struct {
		section string
		cfg     config.Config
		bench   string
	}{
		{"fig3", config.FixedL1MissLatency(150), "cfd"},
		{"fig11", config.WithCoreClock(config.Baseline(), 1200), "nn"},
		{"fig12", config.AsymmetricOnly(), Benches()[0]},
	} {
		want := BenchJob(tc.cfg, tc.bench).CellID()
		found := false
		for _, j := range JobsFor([]string{tc.section}) {
			if j.CellID() == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: cell %s/%s not pre-scheduled by JobsFor", tc.section, tc.cfg.Name, tc.bench)
		}
	}
}

func TestMutatedConfigWithSameNameIsDistinctCell(t *testing.T) {
	// The memo key covers the whole config value, so mutating a preset
	// without renaming it must not alias the original's cached result.
	s := NewScheduler()
	base, err := s.RunJob(BenchJob(config.Baseline(), "leukocyte"))
	if err != nil {
		t.Fatal(err)
	}
	tweaked := config.Baseline() // same Name, different silicon
	tweaked.L1.MSHREntries = 1
	tweaked.L1.MSHRMaxMerge = 1
	m, err := s.RunJob(BenchJob(tweaked, "leukocyte"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 2 {
		t.Fatalf("simulated = %d, want 2 (mutated config aliased the baseline cell)", st.Simulated)
	}
	if m.Cycles == base.Cycles {
		t.Fatal("1-entry-MSHR run returned the baseline metrics")
	}
}

func TestWriteTextZeroValueResults(t *testing.T) {
	// A zero Results (e.g. unmarshaled from JSON missing "sections")
	// must render nothing rather than panic on nil section pointers.
	var buf bytes.Buffer
	(&Results{}).WriteText(&buf)
	if buf.Len() != 0 {
		t.Fatalf("zero Results rendered %q", buf.String())
	}
	(&Results{Sections: []string{"fig10", "fig12"}}).WriteText(&buf) // nil tables
	if s := buf.String(); strings.Contains(s, "Fig. 10") {
		t.Fatalf("nil Fig10 table rendered: %q", s)
	}
}

func TestCollectUnknownSection(t *testing.T) {
	s := NewScheduler()
	if _, err := s.Collect([]string{"fig99"}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestReportJSONStaticSections(t *testing.T) {
	collected, err := NewScheduler().Collect([]string{"tableI", "area"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := collected.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var res Results
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Area) == 0 {
		t.Fatal("area section missing from JSON")
	}
	if len(res.Fig1) != 0 {
		t.Fatal("unselected section present in JSON")
	}
	if res.Engine.Simulated != 0 {
		t.Fatalf("static sections simulated %d cells", res.Engine.Simulated)
	}
}

func TestProgressSinkIsSerialized(t *testing.T) {
	var buf bytes.Buffer
	s := NewScheduler(WithWorkers(4), WithProgress(&buf))
	jobs := []Job{
		BenchJob(config.Baseline(), "leukocyte"),
		BenchJob(config.InfiniteBW(), "leukocyte"),
		BenchJob(config.InfiniteDRAM(), "leukocyte"),
	}
	if err := s.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("progress lines = %d, want 3: %q", len(lines), buf.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ran leukocyte on ") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
}
