package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

// tinySpec is a minimal valid inline workload; distinct i values produce
// distinct content-addressed cells (Iters is part of spec identity).
func tinySpec(i int) trace.Spec {
	return trace.Spec{Name: fmt.Sprintf("tiny-%d", i), WarpsPerCore: 1, Iters: 1 + i, ALUPerIter: 1}
}

// tinyJob is the exp.Job form of tinySpec(i) against the baseline preset.
func tinyJob(i int) exp.Job {
	return exp.Job{Config: exp.PresetRef("baseline"), Workload: exp.SpecRef(tinySpec(i))}
}

// entrySize measures one persisted entry's on-disk size so LRU tests can
// pick bounds in units of entries instead of guessing byte counts.
func entrySize(t *testing.T) int64 {
	t.Helper()
	probe, err := NewDirCache(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	probe.Put(tinyJob(0), core.Metrics{Benchmark: "probe", Cycles: 1})
	return probe.Stats().Bytes
}

func TestDiskCacheEvictsLRU(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	// Room for two entries plus slack for per-entry size jitter, but
	// never a third.
	cache, err := NewDirCache(dir, 2*size+size/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	cache.Put(tinyJob(0), core.Metrics{Cycles: 10})
	cache.Put(tinyJob(1), core.Metrics{Cycles: 11})
	// Touch 0 so 1 becomes the least recently used...
	if _, ok := cache.Get(tinyJob(0)); !ok {
		t.Fatal("entry 0 missed before eviction")
	}
	// ...then push the cache over its bound.
	cache.Put(tinyJob(2), core.Metrics{Cycles: 12})

	if _, ok := cache.Get(tinyJob(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, ok := cache.Get(tinyJob(0)); !ok {
		t.Fatal("recently used entry 0 was evicted")
	}
	if _, ok := cache.Get(tinyJob(2)); !ok {
		t.Fatal("fresh entry 2 missing")
	}
	if n := cache.Stats().Evictions; n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	if cache.Stats().Bytes > 2*size+size/2 {
		t.Fatalf("cache over bound: %d bytes", cache.Stats().Bytes)
	}
	if cache.Stats().Entries != 2 {
		t.Fatalf("entries = %d, want 2", cache.Stats().Entries)
	}
}

// TestDiskCacheKeepsOneOversizedEntry pins the bound's floor: a single
// entry larger than maxBytes is kept, never evicted into an empty cache.
func TestDiskCacheKeepsOneOversizedEntry(t *testing.T) {
	cache, err := NewDirCache(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cache.Put(tinyJob(0), core.Metrics{Cycles: 10})
	if _, ok := cache.Get(tinyJob(0)); !ok {
		t.Fatal("sole oversized entry was evicted")
	}
	if cache.Stats().Entries != 1 {
		t.Fatalf("entries = %d, want 1", cache.Stats().Entries)
	}
}

// survivorsAfterRestart reports which of dir's entries 0, 1 and 2 a boot
// bounded to two entries keeps.
func survivorsAfterRestart(t *testing.T, dir string) (kept [3]bool) {
	t.Helper()
	size := entrySize(t)
	reopened, err := NewDirCache(dir, 2*size+size/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.Stats().Evictions; n != 1 {
		t.Fatalf("evictions at load = %d, want 1", n)
	}
	for i := range kept {
		_, kept[i] = reopened.Get(tinyJob(i))
	}
	return kept
}

// putThree writes entries 0, 1 and 2 through cache, oldest first.
func putThree(cache *DirCache) {
	for i := range 3 {
		cache.Put(tinyJob(i), core.Metrics{Cycles: int64(10 + i)})
	}
}

// wantKept is what a restart bounded to two entries must keep after entry
// p of {0, 1, 2} (written in that order) was used last: p and the younger
// of the other two. Each p in turn, so no directory order passes all three.
func wantKept(p int) (kept [3]bool) {
	kept[p] = true
	kept[map[int]int{0: 2, 1: 2, 2: 1}[p]] = true
	return kept
}

// TestDiskCacheRecencySurvivesRestart proves LRU order survives a restart,
// whether an entry was last used by a hit or by a rewrite, and that writes
// alone order the entries they made.
func TestDiskCacheRecencySurvivesRestart(t *testing.T) {
	for _, via := range []string{"Get", "Put"} {
		for p := range 3 {
			dir := t.TempDir()
			cache, err := NewDirCache(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			putThree(cache)
			if via == "Put" {
				cache.Put(tinyJob(p), core.Metrics{Cycles: int64(10 + p)})
			} else if _, ok := cache.Get(tinyJob(p)); !ok {
				t.Fatalf("entry %d missed", p)
			}
			if got, want := survivorsAfterRestart(t, dir), wantKept(p); got != want {
				t.Errorf("entry %d promoted by %s: restart kept %v, want %v", p, via, got, want)
			}
		}
	}
}

// TestDiskCacheSharedDirRecency is the two-daemon form: caches A and B
// hold one directory open, A uses an entry, and the next bounded boot on
// that directory keeps it — recency lives in the directory, not in either
// process.
func TestDiskCacheSharedDirRecency(t *testing.T) {
	for p := range 3 {
		dir := t.TempDir()
		a, err := NewDirCache(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		putThree(a)
		b, err := NewDirCache(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := a.Get(tinyJob(p)); !ok {
			t.Fatalf("entry %d missed", p)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := survivorsAfterRestart(t, dir), wantKept(p); got != want {
			t.Errorf("entry %d promoted by A beside B: restart kept %v, want %v", p, got, want)
		}
	}
}

// TestDiskCacheAdoptsPeerEntries: on a shared directory a hit on an entry
// a peer wrote enters this cache's accounting, so its bound sees the
// bytes it serves and evicts by its own recency.
func TestDiskCacheAdoptsPeerEntries(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	a, err := NewDirCache(dir, 2*size+size/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDirCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Put(tinyJob(0), core.Metrics{Cycles: 10})
	if m, ok := a.Get(tinyJob(0)); !ok || m.Cycles != 10 {
		t.Fatalf("peer-written entry: %+v, %v; want a hit", m, ok)
	}
	if st := a.Stats(); st.Entries != 1 || st.Bytes != b.Stats().Bytes {
		t.Fatalf("after a hit on a peer's entry A accounts %+v, want its 1 entry of %d bytes", st, b.Stats().Bytes)
	}
	// Two more adopted entries take A over its bound: the first one, least
	// recently used, goes — and B finding its file gone is a plain miss.
	for i := 1; i < 3; i++ {
		b.Put(tinyJob(i), core.Metrics{Cycles: int64(10 + i)})
		if _, ok := a.Get(tinyJob(i)); !ok {
			t.Fatalf("peer-written entry %d missed", i)
		}
	}
	if st := a.Stats(); st.Entries != 2 || st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("A over its bound after adopting three entries: %+v", st)
	}
	if _, ok := b.Get(tinyJob(0)); ok {
		t.Fatal("entry 0 still served after A evicted it")
	}
}

// TestDiskCacheFaultInjection plants damaged spill files — zero-byte,
// truncated JSON, garbage, wrong schema — and asserts each is a miss
// that the next Put repairs, never an error or a poisoned result.
func TestDiskCacheFaultInjection(t *testing.T) {
	want := core.Metrics{Benchmark: "tiny-0", Cycles: 77}
	cases := map[string]func(valid []byte) []byte{
		"zero byte":    func([]byte) []byte { return nil },
		"truncated":    func(valid []byte) []byte { return valid[:len(valid)/2] },
		"garbage":      func([]byte) []byte { return []byte("{not json") },
		"wrong schema": func([]byte) []byte { return []byte(`{"schema":99}`) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := NewDirCache(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cache.Close()
			j := tinyJob(0)
			cache.Put(j, want)
			valid, err := os.ReadFile(filepath.Join(cache.dir, j.CellID()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cache.dir, j.CellID()+".json"), corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			if m, ok := cache.Get(j); ok {
				t.Fatalf("damaged entry served as a hit: %+v", m)
			}
			// The contract after a miss: re-simulate and overwrite. Here the
			// re-simulation result is simulated by calling Put again.
			cache.Put(j, want)
			m, ok := cache.Get(j)
			if !ok || m.Cycles != want.Cycles {
				t.Fatalf("repaired entry = %+v, %v; want %+v", m, ok, want)
			}
		})
	}
}

// TestDamagedEntryResimulates is the end-to-end form: a daemon whose
// spill file for a cell is corrupt re-simulates the cell and overwrites
// the damage, returning a 2xx result identical to a clean run.
func TestDamagedEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	j := exp.BenchJob(config.Baseline(), testBench)
	path := filepath.Join(dir, j.CellID()+".json")
	if err := os.WriteFile(path, []byte(`{"schema":1,"simVersion":`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, c := newTestServer(t, Options{Workers: 2, CacheDir: dir})
	job, err := c.Run(ctx, client.JobSpec{Config: "baseline", Bench: testBench}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.JobDone {
		t.Fatalf("run over corrupt cache entry: %s (%s)", job.State, job.Error)
	}
	st := srv.Stats()
	if st.Scheduler.Simulated != 1 || st.Scheduler.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 simulated and 0 disk hits", st.Scheduler)
	}
	// The damage must have been overwritten with a servable entry.
	cache, err := NewDirCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if _, ok := cache.Get(j); !ok {
		t.Fatal("corrupt entry was not repaired by the re-simulation")
	}
}

// TestEvictionPreservesByteCorrectness is the capped-cache acceptance
// check: force an eviction, restart with an empty memo, and assert the
// re-simulated cell is byte-identical to the pre-eviction result.
func TestEvictionPreservesByteCorrectness(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	size := entrySize(t)
	boot := func() (*Server, *client.Client) {
		return newTestServer(t, Options{Workers: 2, CacheDir: dir, CacheMaxBytes: size + size/2})
	}
	specA := tinySpec(0)
	submit := func(c *client.Client, sp trace.Spec) *client.Job {
		job, err := c.Run(ctx, client.JobSpec{Config: "baseline", InlineSpec: &sp}, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != client.JobDone {
			t.Fatalf("job %s: %s (%s)", sp.Name, job.State, job.Error)
		}
		return job
	}

	srv1, c1 := boot()
	before := submit(c1, specA)
	// Fill past the bound with other cells so cell A is evicted.
	for i := 1; i <= 3; i++ {
		submit(c1, tinySpec(i))
	}
	if st := srv1.Stats(); st.DiskCacheEvictions == 0 {
		t.Fatalf("no evictions with cache bound %d and %d cells: %+v", size+size/2, 4, st)
	}

	// A fresh daemon has no memo; with the spill evicted, cell A must
	// re-simulate — to the byte-identical payload.
	_, c2 := boot()
	after := submit(c2, specA)
	got, want := canonicalJSON(t, after.Metrics), canonicalJSON(t, before.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("re-simulated metrics differ after eviction:\n%s\nvs\n%s", got, want)
	}
}
