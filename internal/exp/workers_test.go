package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/obsv"
)

func TestWithWorkersBoundaryValues(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{n: 0, want: runtime.GOMAXPROCS(0)},  // 0 selects the default
		{n: 1, want: 1},                      // smallest explicit pool
		{n: -3, want: runtime.GOMAXPROCS(0)}, // negative keeps the default
		{n: 7, want: 7},
	}
	for _, tc := range cases {
		if got := NewScheduler(WithWorkers(tc.n)).Workers(); got != tc.want {
			t.Errorf("WithWorkers(%d): workers = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		if err := ValidateWorkers(n); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-1, -100} {
		if err := ValidateWorkers(n); err == nil {
			t.Errorf("ValidateWorkers(%d) = nil, want error", n)
		}
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	s := NewScheduler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunJobEx(ctx, BenchJob(config.Baseline(), "dwt2d"), false)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A pre-canceled call must not have claimed the cell: a real run of
	// the same cell still simulates.
	if _, err := s.Run(config.Baseline(), "dwt2d"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1", st.Simulated)
	}
}

func TestRunContextStopsWaitingOnCancel(t *testing.T) {
	s := NewScheduler()
	// Plant an in-flight cell that never completes, as if another
	// goroutine were mid-simulation.
	j, err := BenchJob(config.Baseline(), "dwt2d").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.cells[j.res.key] = &memo{plain: &cell{done: make(chan struct{})}}
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.RunJobEx(ctx, j, false)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext kept waiting on an in-flight cell after cancel")
	}
}

// memCache is an in-memory ResultCache double standing in for gpusimd's
// disk cache.
type memCache struct {
	mu   sync.Mutex
	m    map[string]memEntry
	puts int
}

type memEntry struct {
	m core.Metrics
	p *obsv.Profile
}

func newMemCache() *memCache { return &memCache{m: make(map[string]memEntry)} }

func (c *memCache) Lookup(j Job) (core.Metrics, *obsv.Profile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[j.CellID()]
	return e.m, e.p, ok
}

func (c *memCache) Fill(j Job, m core.Metrics, p *obsv.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[j.CellID()] = memEntry{m, p}
	c.puts++
}

func TestResultCacheRoundTrip(t *testing.T) {
	cache := newMemCache()
	s1 := NewScheduler(WithResultCache(cache))
	m1, err := s1.Run(config.Baseline(), "dwt2d")
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 simulated, 0 disk hits", st)
	}
	if cache.puts != 1 {
		t.Fatalf("puts = %d, want 1", cache.puts)
	}

	// A fresh scheduler sharing the cache serves the cell without
	// simulating — the daemon-restart scenario.
	s2 := NewScheduler(WithResultCache(cache))
	m2, err := s2.Run(config.Baseline(), "dwt2d")
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Simulated != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 simulated, 1 disk hit", st)
	}
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("warm metrics differ:\n%s\nvs\n%s", j1, j2)
	}
	// Repeats within the scheduler hit the memo cache, not the result
	// cache again.
	if _, err := s2.Run(config.Baseline(), "dwt2d"); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("repeat stats = %+v, want memo hit", st)
	}
}
