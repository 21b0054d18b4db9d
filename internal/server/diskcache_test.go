package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
)

// TestWarmRestartServesFromDiskCache is the acceptance scenario for
// -cache-dir: a restarted daemon pointed at the same directory serves
// previously simulated cells without re-simulating, byte-identically.
func TestWarmRestartServesFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := client.JobSpec{Config: "baseline", Bench: testBench}

	boot := func() (*Server, *client.Client, func()) {
		srv, err := New(Options{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, client.New(ts.URL), func() {
			ts.Close()
			ctxTO, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			srv.Shutdown(ctxTO) //nolint:errcheck
		}
	}

	srv1, c1, stop1 := boot()
	cold, err := c1.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != client.JobDone {
		t.Fatalf("cold run: %s (%s)", cold.State, cold.Error)
	}
	if st := srv1.Stats(); st.Scheduler.Simulated != 1 || st.DiskCacheEntries != 1 {
		t.Fatalf("cold stats = %+v, want 1 simulated, 1 cache entry", st)
	}
	stop1()

	// Restart against the same directory: the cell must come off disk.
	srv2, c2, stop2 := boot()
	defer stop2()
	warm, err := c2.Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != client.JobDone {
		t.Fatalf("warm run: %s (%s)", warm.State, warm.Error)
	}
	st := srv2.Stats()
	if st.Scheduler.Simulated != 0 {
		t.Fatalf("warm restart re-simulated: %+v", st.Scheduler)
	}
	if st.Scheduler.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.Scheduler.DiskHits)
	}
	got, want := canonicalJSON(t, warm.Metrics), canonicalJSON(t, cold.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("warm metrics differ from cold:\n%s\nvs\n%s", got, want)
	}
}

func TestDiskCacheIgnoresCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDirCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plant garbage under the exact cell path and make sure Get treats it
	// as a miss instead of failing or returning junk.
	j := exp.BenchJob(config.Baseline(), testBench)
	path := filepath.Join(dir, j.CellID()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(j); ok {
		t.Fatal("corrupt entry served as a hit")
	}
}

func TestDiskCacheRejectsOtherSimVersions(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDirCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := exp.BenchJob(config.Baseline(), testBench)
	cache.Put(j, core.Metrics{Benchmark: testBench, Cycles: 42})
	if _, ok := cache.Get(j); !ok {
		t.Fatal("fresh entry missed")
	}
	// Rewrite the entry as if an older simulator had produced it: it must
	// be treated as a miss, never served.
	data, err := json.Marshal(cacheEntry{
		Schema:     cacheSchema,
		SimVersion: "ispass17-sim-0",
		Bench:      testBench,
		Metrics:    core.Metrics{Benchmark: testBench, Cycles: 41},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cache.dir, j.CellID()+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(j); ok {
		t.Fatal("entry from a different simulator version served as a hit")
	}
}
