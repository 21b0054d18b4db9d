package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
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
	if _, err := s.RunJob(BenchJob(config.Baseline(), "dwt2d")); err != nil {
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
	m1, err := s1.RunJob(BenchJob(config.Baseline(), "dwt2d"))
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
	m2, err := s2.RunJob(BenchJob(config.Baseline(), "dwt2d"))
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
	if _, err := s2.RunJob(BenchJob(config.Baseline(), "dwt2d")); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("repeat stats = %+v, want memo hit", st)
	}
}

// doneProbe is a context that reports the first call of Done: a request
// asks for it only once it waits on another request's run.
type doneProbe struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// TestLastTierAbandonedRunIsForgotten drives the miss path with a fake
// remote last tier whose first run returns only when its caller leaves.
// That run answered nothing, so it must not be memoized, and a request
// that joined it with a live context runs the cell again. The run that
// answers passes its own tier, metrics and profile through and fills the
// store.
func TestLastTierAbandonedRunIsForgotten(t *testing.T) {
	var calls atomic.Int64
	entered := make(chan struct{}, 2)
	want := RunResult{Metrics: core.Metrics{Cycles: 42}, Profile: &obsv.Profile{Cycles: 42}, Tier: TierMemo}
	last := func(ctx context.Context, _ Job, _ bool) (RunResult, error) {
		entered <- struct{}{}
		if calls.Add(1) == 1 {
			<-ctx.Done()
			return RunResult{}, ctx.Err()
		}
		return want, nil
	}
	cache := newMemCache()
	s := NewScheduler(WithResultCache(cache), WithLastTier(last))
	job := BenchJob(config.Baseline(), "dwt2d")
	bg := context.Background()

	ctx, cancel := context.WithCancel(bg)
	owner := make(chan error, 1)
	go func() {
		_, err := s.RunJobEx(ctx, job, true)
		owner <- err
	}()
	<-entered
	type outcome struct {
		res RunResult
		err error
	}
	joiner := make(chan outcome, 1)
	waiting := &doneProbe{Context: bg, asked: make(chan struct{})}
	go func() {
		res, err := s.RunJobEx(waiting, job, true)
		joiner <- outcome{res, err}
	}()
	<-waiting.asked // the second request has joined the run
	cancel()
	if err := <-owner; err != context.Canceled {
		t.Fatalf("abandoned owner: err = %v, want context.Canceled", err)
	}
	got := <-joiner
	if got.err != nil || got.res.Tier != TierMemo || got.res.Metrics.Cycles != 42 || got.res.Profile != want.Profile {
		t.Fatalf("live joiner: %+v, %v; want the last tier's answer, tier %q", got.res, got.err, TierMemo)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("last tier called %d times, want 2 (the abandoned run, then the joiner's)", n)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.Simulated != 0 {
		t.Fatalf("stats = %+v, want no memo hit and no local simulation", st)
	}
	if e := cache.m[job.CellID()]; cache.puts != 1 || e.m.Cycles != 42 || e.p != want.Profile {
		t.Fatalf("store: %d fills, entry %+v; want one fill with the answer", cache.puts, e)
	}

	// The answer is memoized, and a fresh scheduler finds it in the store:
	// neither asks the last tier again.
	if res, err := s.RunJobEx(bg, job, true); err != nil || res.Tier != TierMemo || s.Stats().CacheHits != 1 {
		t.Fatalf("repeat: tier %q, err %v, stats %+v; want a memo hit", res.Tier, err, s.Stats())
	}
	if res, err := NewScheduler(WithResultCache(cache), WithLastTier(last)).RunJobEx(bg, job, true); err != nil || res.Tier != TierDisk {
		t.Fatalf("fresh scheduler: tier %q, err %v; want a store hit", res.Tier, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("last tier called %d times, want still 2", n)
	}
}
