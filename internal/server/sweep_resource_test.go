package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/area"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

// TestSweepResourceLifecycle pins the sweep-as-resource redesign: POST
// /v1/sweeps returns a content-addressed ID, GET /v1/sweeps/{id} tracks
// per-cell state, and the completed resource carries the merged speedup
// grid relative to the first configuration column.
func TestSweepResourceLifecycle(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	resp, err := c.Sweep(ctx, client.SweepRequest{
		Configs: []string{"baseline", "L2-4x"},
		Benches: []string{testBench},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.ID, "sw-") {
		t.Fatalf("sweep ID = %q, want sw- prefix", resp.ID)
	}
	if resp.Requested != 2 || len(resp.Jobs) != 2 {
		t.Fatalf("requested %d, %d jobs, want 2 and 2", resp.Requested, len(resp.Jobs))
	}

	sw, err := c.WaitSweep(ctx, resp.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.State != client.SweepDone {
		t.Fatalf("sweep state = %s (counts %v), want done", sw.State, sw.Counts)
	}
	if sw.Counts[client.JobDone] != 2 {
		t.Fatalf("counts = %v, want 2 done", sw.Counts)
	}
	if len(sw.Jobs) != 2 || sw.Jobs[0].ID != resp.Jobs[0].ID || sw.Jobs[1].ID != resp.Jobs[1].ID {
		t.Fatalf("resource jobs diverge from submission order: %v vs %v", sw.Jobs, resp.Jobs)
	}
	sp := sw.Speedups
	if sp == nil {
		t.Fatal("completed axis-form sweep has no speedups")
	}
	if len(sp.Configs) != 2 || len(sp.Workloads) != 1 || len(sp.Cells) != 1 || len(sp.Cells[0]) != 2 {
		t.Fatalf("speedup grid shape: configs %v workloads %v cells %v", sp.Configs, sp.Workloads, sp.Cells)
	}
	if sp.Cells[0][0] != 1.0 {
		t.Fatalf("baseline column speedup = %v, want exactly 1.0", sp.Cells[0][0])
	}
	if sp.Cells[0][1] <= 0 {
		t.Fatalf("speedup vs baseline = %v, want > 0", sp.Cells[0][1])
	}
}

// TestSweepAreaAgainstFirstColumn pins what areaMM2 and overheadFrac
// measure: each column's cost against the sweep's first configuration
// column, like the speedups — not against the paper's baseline. With
// L2-4x first, column 0 costs nothing and the baseline column is a saving.
func TestSweepAreaAgainstFirstColumn(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	resp, err := c.Sweep(ctx, client.SweepRequest{Configs: []string{"L2-4x", "baseline"}, Benches: []string{"leukocyte"}})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.WaitSweep(ctx, resp.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sp := sw.Speedups
	if sp == nil || len(sp.AreaMM2) != 2 || len(sp.OverheadFrac) != 2 {
		t.Fatalf("sweep %s: speedups %+v, want two area columns", sw.State, sp)
	}
	if sp.AreaMM2[0] != 0 || sp.OverheadFrac[0] != 0 {
		t.Fatalf("column 0 costs %v mm² (%v of die), want 0 against itself", sp.AreaMM2[0], sp.OverheadFrac[0])
	}
	l2, base := config.ScaledL2(), config.Baseline()
	want := area.Compare(&l2, &base)
	if sp.AreaMM2[1] != want.TotalMM2 || sp.OverheadFrac[1] != want.OverheadFrac || want.TotalMM2 >= 0 {
		t.Fatalf("baseline column costs %v mm² (%v of die), want area.Compare(L2-4x, baseline) = %v mm² (%v), a saving",
			sp.AreaMM2[1], sp.OverheadFrac[1], want.TotalMM2, want.OverheadFrac)
	}
}

// TestSweepMatchesLocalSweep pins local-vs-served parity: the same axes
// run by Scheduler.Sweep and served by GET /v1/sweeps/{id} give the same
// labels, exactly the same speedups and exactly the same area per column
// — both read exp's grid.
func TestSweepMatchesLocalSweep(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	patch := client.ConfigPatch{Base: "baseline", Delta: json.RawMessage(`{"L1":{"MSHREntries":64,"MissQueueEntries":16}}`)}
	tiny := trace.Spec{Name: "tiny", WarpsPerCore: 2, Iters: 3, LoadsPerIter: 1, ALUPerIter: 1}
	resp, err := c.Sweep(ctx, client.SweepRequest{
		Configs:       []string{"baseline", "P-inf"},
		ConfigPatches: []client.ConfigPatch{patch},
		Benches:       []string{"leukocyte", "nn"},
		InlineSpecs:   []client.WorkloadSpec{tiny},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.WaitSweep(ctx, resp.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Speedups == nil {
		t.Fatalf("sweep %s (counts %v) served no speedups", sw.State, sw.Counts)
	}

	local, err := exp.NewScheduler(exp.WithWorkers(2)).Sweep(
		[]exp.ConfigRef{exp.PresetRef("baseline"), exp.PresetRef("P-inf"), exp.PatchRef(patch)},
		[]exp.WorkloadRef{exp.BenchRef("leukocyte"), exp.BenchRef("nn"), exp.SpecRef(tiny)})
	if err != nil {
		t.Fatal(err)
	}
	want := api.SweepSpeedups{Configs: local.Configs, Workloads: local.Workloads, Cells: local.Speedups(0)}
	for _, est := range local.Areas() {
		want.AreaMM2 = append(want.AreaMM2, est.TotalMM2)
		want.OverheadFrac = append(want.OverheadFrac, est.OverheadFrac)
	}
	if got := *sw.Speedups; !reflect.DeepEqual(got, want) {
		t.Fatalf("served grid differs from Scheduler.Sweep's:\nserved: %+v\nlocal:  %+v", got, want)
	}
}

// TestSweepIDContentAddressed pins sweep identity: the same cell set —
// spelled as axes, spelled as an explicit cell list, or resubmitted —
// is the same resource, so retries and cross-entry-point submissions
// converge instead of multiplying.
func TestSweepIDContentAddressed(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	axes, err := c.Sweep(ctx, client.SweepRequest{
		Configs: []string{"baseline", "L2-4x"},
		Benches: []string{testBench},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same cells as an explicit list, in a different order.
	cells, err := c.Sweep(ctx, client.SweepRequest{Cells: []client.JobSpec{
		{Config: "L2-4x", Bench: testBench},
		{Config: "baseline", Bench: testBench},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if axes.ID != cells.ID {
		t.Fatalf("axis form %s and cell-list form %s name different resources", axes.ID, cells.ID)
	}

	// The axis-form registration owns the grid, so the shared resource
	// still serves speedups.
	sw, err := c.WaitSweep(ctx, axes.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Speedups == nil {
		t.Fatal("merged resource lost its speedup grid")
	}
}

// TestSweepCellListAdoptsAxesGrid pins the twin-registration order: when
// the cell-list spelling registers first, a later axis-form submission
// upgrades the record with its grid.
func TestSweepCellListAdoptsAxesGrid(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	cells, err := c.Sweep(ctx, client.SweepRequest{Cells: []client.JobSpec{
		{Config: "baseline", Bench: testBench},
		{Config: "L2-4x", Bench: testBench},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.WaitSweep(ctx, cells.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Speedups != nil {
		t.Fatal("cell-list sweep has no axes; speedups should be absent")
	}

	axes, err := c.Sweep(ctx, client.SweepRequest{
		Configs: []string{"baseline", "L2-4x"},
		Benches: []string{testBench},
	})
	if err != nil {
		t.Fatal(err)
	}
	if axes.ID != cells.ID {
		t.Fatalf("twins diverged: %s vs %s", axes.ID, cells.ID)
	}
	sw, err = c.GetSweep(ctx, cells.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Speedups == nil {
		t.Fatal("axis-form twin did not upgrade the resource with its grid")
	}
}

// TestSweepUnknownID pins the 404 envelope on the sweep route.
func TestSweepUnknownID(t *testing.T) {
	_, ts := newIdleServer(t, Options{Workers: 1})
	var e api.Error
	resp := getJSON(t, ts.URL+"/v1/sweeps/sw-doesnotexist", &e)
	if resp.StatusCode != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("status %d code %q, want 404 %q", resp.StatusCode, e.Code, api.CodeNotFound)
	}
}

// TestSweepMutuallyExclusiveForms pins the request validation boundary
// between the axis and cell-list spellings.
func TestSweepMutuallyExclusiveForms(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	_, err := c.Sweep(context.Background(), client.SweepRequest{
		Configs: []string{"baseline"},
		Benches: []string{testBench},
		Cells:   []client.JobSpec{{Config: "baseline", Bench: testBench}},
	})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != api.CodeInvalidArgument {
		t.Fatalf("mixed sweep forms: err = %v, want 400 invalid_argument", err)
	}
}

// TestSweepCellBound pins the hostile-input cap: a sweep's size — the
// axes' cross product, which a few KB of repeated names inflate without
// bound and which dedupes to one cell — is checked before any cell is
// resolved, on the daemon and the coordinator alike.
func TestSweepCellBound(t *testing.T) {
	repeat := func(s string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	srv, ts := newIdleServer(t, Options{Workers: 1})
	tc := newTestCluster(t, []*Server{newIdleWorker(t, Options{})})
	ctx := context.Background()
	for name, c := range map[string]*client.Client{"server": client.New(ts.URL), "coordinator": tc.client} {
		start := time.Now()
		_, err := c.Sweep(ctx, client.SweepRequest{Configs: repeat("baseline", 4000), Benches: repeat(testBench, 4000)})
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
			!strings.Contains(apiErr.Message, "16000000") || !strings.Contains(apiErr.Message, "65536") {
			t.Fatalf("%s: 4000 × 4000 sweep: err = %v, want a 400 naming the product and the bound", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: 4000 × 4000 sweep took %v to reject, want < 1 s", name, d)
		}
		resp, err := c.Sweep(ctx, client.SweepRequest{Configs: repeat("baseline", 64), Benches: repeat(testBench, 64)})
		if err != nil || resp.Requested != 64*64 || resp.Deduped != 64*64-1 {
			t.Fatalf("%s: 64 × 64 sweep: %+v, %v, want 4096 requested and one cell", name, resp, err)
		}
	}
	if d := srv.Stats().QueueDepth; d != 1 {
		t.Fatalf("queue depth = %d, want only the admitted sweep's one cell", d)
	}
	if _, err := expandSweep(api.SweepRequest{Cells: make([]api.JobSpec, maxSweepCells+1)}); err == nil ||
		!strings.Contains(err.Error(), "65537") {
		t.Fatalf("cell list over the bound: err = %v, want a rejection naming its length", err)
	}
}
