package exp

import (
	"strings"
	"testing"

	"gpumembw/internal/config"
)

func TestSchedulerMemoizes(t *testing.T) {
	r := NewScheduler()
	m1, err := r.RunJob(BenchJob(config.InfiniteBW(), "leukocyte"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.RunJob(BenchJob(config.InfiniteBW(), "leukocyte"))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Fatal("memoized run differs")
	}
	if st := r.Stats(); st.Simulated != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 hit", st)
	}
}

func TestSchedulerUnknownBenchmark(t *testing.T) {
	r := NewScheduler()
	if _, err := r.RunJob(BenchJob(config.Baseline(), "nope")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSpeedupAgainstBaseline(t *testing.T) {
	r := NewScheduler()
	s, err := r.Speedup(config.InfiniteBW(), "sad")
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.5 || s > 5 {
		t.Fatalf("sad P∞ speedup = %g, implausible", s)
	}
}

func TestFig3SubsetShape(t *testing.T) {
	// The latency sweep must be monotonically non-increasing (within
	// noise) for a latency-sensitive benchmark.
	r := NewScheduler()
	pts, err := r.fig3(fig3Grid([]string{"dwt2d"}, []int{0, 400, 800}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].NormIPC < pts[2].NormIPC {
		t.Errorf("IPC at latency 0 (%.2f) below IPC at 800 (%.2f)", pts[0].NormIPC, pts[2].NormIPC)
	}
	if pts[0].NormIPC < 1 {
		t.Errorf("zero-latency IPC %.2f below baseline", pts[0].NormIPC)
	}
}

func TestBenchListsConsistent(t *testing.T) {
	all := map[string]bool{}
	for _, b := range Benches() {
		all[b] = true
	}
	for _, row := range sectionTable {
		if row.grid == nil {
			continue
		}
		for _, b := range row.grid().Workloads {
			if !all[b] {
				t.Errorf("%s bench %q unknown", row.name, b)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	var sb strings.Builder
	table(&sb, []string{"a", "bb"}, [][]string{{"1", "2"}, {"3", "4"}})
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "4") {
		t.Fatalf("table output wrong: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want header+separator+2 rows, got %q", out)
	}
}

func TestWriteTableIIIAndArea(t *testing.T) {
	res, err := NewScheduler().Collect([]string{"tableIII", "area"})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "16+48") {
		t.Error("Table III missing cost-effective crossbar")
	}
	if !strings.Contains(out, "cost-effective-16+68") {
		t.Error("area analysis missing 16+68")
	}
}

func TestReportSectionsSelectable(t *testing.T) {
	// tableI, tableIII and area need no simulation.
	res, err := NewScheduler().Collect([]string{"tableI", "tableIII", "area"})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "Table III", "area overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Fig. 1") {
		t.Error("unselected section rendered")
	}
}

func TestMeanAndMax(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean of empty must be 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}
