package exp

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"gpumembw/internal/core"
	"gpumembw/internal/stats"
)

// ledgerSections is the subset the perf ledger's report workload renders
// (benchmark/report.go): 57 cells behind 190 assembly lookups.
var ledgerSections = []string{"fig1", "tableII", "fig4", "fig5", "fig7", "fig8", "fig9"}

// seededScheduler returns a scheduler whose memo already holds a canned,
// finite result for every cell of the full report, so Collect can be held
// to its lookup pattern without simulating anything.
func seededScheduler() *Scheduler {
	s := NewScheduler(WithWorkers(2))
	done := make(chan struct{})
	close(done)
	for _, j := range JobsFor(nil) {
		s.cells[j.res.key] = &memo{plain: &cell{done: done, m: core.Metrics{
			Cycles: 1000, Instructions: 2000, IPC: 2, PerfIPS: 2.8e9,
			IssueStalls: stats.NewBreakdown("a", "b"),
			L1Stalls:    stats.NewBreakdown("a", "b"),
			L2Stalls:    stats.NewBreakdown("a", "b"),
		}}}
	}
	return s
}

// TestCollectReadsOnlyItsOwnGrid holds every section selection to the
// table: whatever a section's assembler looks up, its own JobsFor has
// scheduled (nothing simulates during assembly, for any selection — the
// exhaustive form of TestJobsForMatchesFigureCacheKeys's three probes), and
// the number of counted lookups — report output, pinned by the goldens'
// cacheHits — is the parent's: one per prefetched cell plus the
// assemblers' 788 for the full report, 190 for the ledger's seven.
func TestCollectReadsOnlyItsOwnGrid(t *testing.T) {
	selections := [][]string{nil, ledgerSections}
	for _, sec := range Sections {
		selections = append(selections, []string{sec})
	}
	hits := map[string]int64{"all": 407 + 788, strings.Join(ledgerSections, ","): 57 + 190}
	for _, sel := range selections {
		name := strings.Join(sel, ",")
		if sel == nil {
			name = "all"
		}
		// Only the selection's own cells are in the memo: a lookup outside
		// its JobsFor would have to simulate.
		full, s := seededScheduler(), NewScheduler(WithWorkers(2))
		for _, j := range JobsFor(sel) {
			s.cells[j.res.key] = full.cells[j.res.key]
		}
		res, err := s.Collect(sel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Engine.Simulated != 0 {
			t.Errorf("%s: assembly simulated %d cells its JobsFor did not schedule", name, res.Engine.Simulated)
		}
		if want, pinned := hits[name]; pinned && res.Engine.CacheHits != want {
			t.Errorf("%s: %d memo hits, want %d (cacheHits is golden output)", name, res.Engine.CacheHits, want)
		}
		if sel != nil && !slices.Equal(res.Sections, sel) {
			t.Errorf("%s: collected sections %v", name, res.Sections)
		}
		res.WriteText(io.Discard) // every row renders the canned data without panicking
	}
}

// TestJobsForOrderPinned pins the prefetch order — which decides what a
// worker pool simulates first and what `-j 1` prints as progress — to the
// parent's, as a count and the first 8 bytes of sha256 over the
// newline-joined CellIDs.
func TestJobsForOrderPinned(t *testing.T) {
	digest := func(sections []string) string {
		jobs := JobsFor(sections)
		if len(jobs) == 0 {
			return "0"
		}
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			ids[i] = j.CellID()
		}
		sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
		return fmt.Sprintf("%d %x", len(jobs), sum[:8])
	}
	const baselineRow = "19 f868e928d847396e"
	for _, tc := range []struct {
		sections []string
		want     string
	}{
		{nil, "407 ab847adb6e9e7ab5"},
		{ledgerSections, "57 4be2f768f265f4e8"},
		{[]string{"fig1"}, baselineRow}, {[]string{"fig4"}, baselineRow}, {[]string{"fig5"}, baselineRow},
		{[]string{"fig7"}, baselineRow}, {[]string{"fig8"}, baselineRow}, {[]string{"fig9"}, baselineRow},
		{[]string{"tableII"}, "57 c3a36af15e57ddbd"},
		{[]string{"fig3"}, "144 f7957ca7f341e34f"},
		{[]string{"fig10"}, "133 89fa91455ca0f2df"},
		{[]string{"fig11"}, "30 0bbd5c4e343e8565"},
		{[]string{"fig12"}, "114 9fc53856e67e2d8d"},
		{[]string{"tableI"}, "0"}, {[]string{"tableIII"}, "0"}, {[]string{"area"}, "0"},
	} {
		if got := digest(tc.sections); got != tc.want {
			t.Errorf("JobsFor(%v) = %s, want %s", tc.sections, got, tc.want)
		}
	}
}

// TestSectionTableMatchesSections is the structural half: Sections and
// the table are the same fourteen names, once each, in the same order,
// every row has a title, and a row simulates exactly when it has a grid to
// fill from.
func TestSectionTableMatchesSections(t *testing.T) {
	if len(Sections) != 14 || len(sectionTable) != len(Sections) {
		t.Fatalf("%d section names, %d table rows, want 14 of each", len(Sections), len(sectionTable))
	}
	seen := map[string]bool{}
	for i, row := range sectionTable {
		if row.name != Sections[i] {
			t.Errorf("row %d is %q, Sections[%d] is %q", i, row.name, i, Sections[i])
		}
		if seen[row.name] {
			t.Errorf("section %q has more than one row", row.name)
		}
		seen[row.name] = true
		if row.title == "" {
			t.Errorf("section %q has no title", row.name)
		}
		if row.write == nil {
			t.Errorf("section %q cannot render", row.name)
		}
		if row.grid != nil && row.fill == nil {
			t.Errorf("section %q schedules cells nothing reads", row.name)
		}
	}
}
