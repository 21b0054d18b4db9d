package trace

import (
	"reflect"
	"slices"
	"testing"

	"gpumembw/internal/smcore"
)

func TestAllBenchmarksBuild(t *testing.T) {
	table := Table()
	if len(table) != 19 {
		t.Fatalf("benchmarks = %d, want 19 (Table II)", len(table))
	}
	seen := map[string]bool{}
	for _, b := range table {
		wl, err := b.Spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Spec.Name, err)
		}
		if seen[wl.Name] {
			t.Fatalf("duplicate benchmark %s", wl.Name)
		}
		seen[wl.Name] = true
		if wl.Program.TotalInsts() <= 0 {
			t.Errorf("%s: empty program", wl.Name)
		}
		if b.PaperPInf < 1 || b.PaperPDRAM < 1 {
			t.Errorf("%s: implausible paper reference values %g/%g", wl.Name, b.PaperPInf, b.PaperPDRAM)
		}
		if b.PaperPDRAM > b.PaperPInf {
			t.Errorf("%s: P_DRAM %g exceeds P∞ %g", wl.Name, b.PaperPDRAM, b.PaperPInf)
		}
	}
}

func TestTableIIOrderingByPInf(t *testing.T) {
	table := Table()
	for i := 1; i < len(table); i++ {
		if table[i].PaperPInf > table[i-1].PaperPInf {
			t.Errorf("Table II order violated at %s (%g > %g)",
				table[i].Spec.Name, table[i].PaperPInf, table[i-1].PaperPInf)
		}
	}
}

func TestFig1NamesCoverAllBenchmarks(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	fig1 := Fig1Names()
	if len(fig1) != len(names) {
		t.Fatalf("Fig. 1 ordering has %d names, want %d", len(fig1), len(names))
	}
	for _, n := range fig1 {
		if !names[n] {
			t.Errorf("Fig. 1 name %q not in Table II", n)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// The benchmark table is built once: resolving a known name — every
// daemon submit, sweep cell and figure lookup — allocates nothing, and
// Table and Names still hand out slices the caller owns.
func TestSpecByNameDoesNotAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := SpecByName("leukocyte"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SpecByName allocates %v times per call, want 0", n)
	}
	tab, names := Table(), Names()
	tab[0].Spec.Name, names[0] = "clobbered", "clobbered"
	if sp, err := SpecByName("mm"); err != nil || sp.Name != "mm" || Names()[0] != "mm" || Table()[0].Spec.Name != "mm" {
		t.Fatalf("a caller's writes reached the shared table: %q, %v", sp.Name, err)
	}
}

func TestAddressDeterminism(t *testing.T) {
	for _, b := range Table() {
		wl := b.Spec.MustBuild()
		var a1, a2 []uint64
		for inst := range wl.Program.Body {
			if wl.Program.Body[inst].Kind != smcore.OpLoad && wl.Program.Body[inst].Kind != smcore.OpStore {
				continue
			}
			a1 = wl.Addr(a1, 3, 7, 2, inst)
			a2 = wl.Addr(a2, 3, 7, 2, inst)
		}
		if len(a1) != len(a2) {
			t.Fatalf("%s: nondeterministic lengths", wl.Name)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("%s: nondeterministic address at %d", wl.Name, i)
			}
		}
	}
}

func TestAddressesAreLineAligned(t *testing.T) {
	for _, b := range Table() {
		wl := b.Spec.MustBuild()
		var buf []uint64
		for inst, in := range wl.Program.Body {
			if in.Kind != smcore.OpLoad && in.Kind != smcore.OpStore {
				continue
			}
			for core := 0; core < 3; core++ {
				for iter := 0; iter < 3; iter++ {
					buf = wl.Addr(buf[:0], core, core*5, iter, inst)
					if len(buf) == 0 {
						t.Fatalf("%s: inst %d generated no addresses", wl.Name, inst)
					}
					for _, a := range buf {
						if a%lineBytes != 0 {
							t.Fatalf("%s: unaligned address 0x%x", wl.Name, a)
						}
					}
				}
			}
		}
	}
}

func TestCoalescingDegree(t *testing.T) {
	// sc is specified with 8 lines per access; stream benchmarks with 1.
	sc, _ := ByName("sc")
	var buf []uint64
	buf = sc.Addr(buf, 0, 0, 0, 0)
	if len(buf) < 6 { // duplicates may collapse a couple
		t.Fatalf("sc coalescing = %d lines, want ≈8", len(buf))
	}
	nn, _ := ByName("nn")
	buf = nn.Addr(buf[:0], 0, 0, 0, 0)
	if len(buf) != 1 {
		t.Fatalf("nn coalescing = %d lines, want 1", len(buf))
	}
}

func TestStreamPatternIsFresh(t *testing.T) {
	// Streaming loads must never revisit a *stream-region* line across
	// iterations (accesses diverted to the hot shared region may repeat).
	nn, _ := ByName("nn")
	var spec Spec
	for _, b := range Table() {
		if b.Spec.Name == "nn" {
			spec = b.Spec
		}
	}
	seen := map[uint64]bool{}
	var buf []uint64
	for iter := 0; iter < 10; iter++ {
		for inst := 0; inst < spec.LoadsPerIter; inst++ {
			buf = nn.Addr(buf[:0], 0, 0, iter, inst)
			for _, a := range buf {
				if a/lineBytes < streamRegionBase {
					continue // hot shared region access
				}
				if seen[a] {
					t.Fatalf("stream revisited line 0x%x at iter %d", a, iter)
				}
				seen[a] = true
			}
		}
	}
}

func TestHotSharedHitsSharedRegion(t *testing.T) {
	ss, _ := ByName("ss")
	spec := Table()[2].Spec // ss
	if spec.Name != "ss" {
		t.Fatal("table order changed")
	}
	sharedLines := uint64(spec.SharedKB) * 1024 / lineBytes
	inShared := 0
	total := 0
	var buf []uint64
	for core := 0; core < 15; core++ {
		for iter := 0; iter < 20; iter++ {
			for inst := 0; inst < spec.LoadsPerIter; inst++ {
				buf = ss.Addr(buf[:0], core, 3, iter, inst)
				for _, a := range buf {
					total++
					if a/lineBytes < sharedLines {
						inShared++
					}
				}
			}
		}
	}
	frac := float64(inShared) / float64(total)
	if frac < spec.SharedFrac-0.15 || frac > spec.SharedFrac+0.15 {
		t.Fatalf("shared fraction = %.2f, want ≈%.2f", frac, spec.SharedFrac)
	}
}

func TestTiledPatternStaysInCoreTile(t *testing.T) {
	mm, _ := ByName("mm")
	spec := Table()[0].Spec
	tileLines := uint64(spec.WorkingSetKB) * 1024 / lineBytes
	var buf []uint64
	for iter := 0; iter < 20; iter++ {
		buf = mm.Addr(buf[:0], 2, 1, iter, 0)
		for _, a := range buf {
			idx := a / lineBytes
			if idx < tileRegionBase {
				continue // hot shared region access
			}
			tile := (idx - tileRegionBase) / tileLines
			if tile != 2 {
				t.Fatalf("core 2 accessed tile %d", tile)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := Spec{Name: "x", Iters: 1, LoadsPerIter: 1, Pattern: PatRandomWS} // no WS
	if _, err := bad.Build(); err == nil {
		t.Error("missing working set must fail")
	}
	bad2 := Spec{Name: "y", Iters: 0, LoadsPerIter: 1}
	if _, err := bad2.Build(); err == nil {
		t.Error("zero iterations must fail")
	}
	bad3 := Spec{Iters: 1, LoadsPerIter: 1}
	if _, err := bad3.Build(); err == nil {
		t.Error("missing name must fail")
	}
}

func TestBodyLayoutConsumesLoads(t *testing.T) {
	spec := Spec{
		Name: "layout", Iters: 1,
		LoadsPerIter: 3, StoresPerIter: 1, ALUPerIter: 6, DepDist: 2,
		Pattern: PatStream, Seed: 1,
	}
	wl := spec.MustBuild()
	consumed := map[int8]bool{}
	for _, in := range wl.Program.Body {
		if in.Kind == smcore.OpALU {
			if in.Src1 >= 1 && in.Src1 <= 3 {
				consumed[in.Src1] = true
			}
		}
	}
	for r := int8(1); r <= 3; r++ {
		if !consumed[r] {
			t.Errorf("load register r%d never consumed — no data hazards possible", r)
		}
	}
}

func TestPadCodeGrowsBody(t *testing.T) {
	spec := Spec{
		Name: "padded", Iters: 1, LoadsPerIter: 1, ALUPerIter: 1,
		Pattern: PatStream, PadCodeInsts: 100,
	}
	wl := spec.MustBuild()
	if len(wl.Program.Body) < 102 {
		t.Fatalf("body = %d insts, want ≥ 102", len(wl.Program.Body))
	}
}

// A hot-shared spec with a hot fraction issues exactly the address stream
// of its random-ws respelling: Build diverts the hot fraction for every
// pattern, and indexes the rest of both patterns alike. Canonical merges
// the two spellings only when SharedFrac is 0, so these twins still hash
// to distinct cells; the merge waits for a SimVersion bump (ROADMAP 7(d)).
func TestHotSharedIsRandomWSWithAHotFraction(t *testing.T) {
	var names []string
	for _, b := range Table() {
		if b.Spec.Pattern != PatHotShared || b.Spec.SharedFrac == 0 {
			continue
		}
		names = append(names, b.Spec.Name)
		twin := b.Spec
		twin.Pattern = PatRandomWS
		hot, ws := b.Spec.MustBuild(), twin.MustBuild()
		if !reflect.DeepEqual(hot.Program, ws.Program) || hot.WarpsPerCore != ws.WarpsPerCore {
			t.Fatalf("%s: the random-ws respelling builds another program", b.Spec.Name)
		}
		var a, w []uint64
		for inst, in := range hot.Program.Body {
			if in.Kind != smcore.OpLoad && in.Kind != smcore.OpStore {
				continue
			}
			for core := range 4 {
				for warp := 0; warp < hot.WarpsPerCore; warp += 7 {
					for iter := range 6 {
						a = hot.Addr(a[:0], core, warp, iter, inst)
						w = ws.Addr(w[:0], core, warp, iter, inst)
						if !slices.Equal(a, w) {
							t.Fatalf("%s: core %d warp %d iter %d inst %d: hot-shared %x, random-ws %x",
								b.Spec.Name, core, warp, iter, inst, a, w)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	if want := []string{"ii", "lavaMD", "pvr", "ss"}; !slices.Equal(names, want) {
		t.Errorf("hot-shared specs with a hot fraction are %q, want %q", names, want)
	}
}
