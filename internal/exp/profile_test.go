package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/obsv"
)

// profileBytes runs one profiled cell on a fresh scheduler and returns
// the profile's canonical JSON encoding.
func profileBytes(t *testing.T, workers int, bench string) []byte {
	t.Helper()
	s := NewScheduler(WithWorkers(workers))
	res, err := s.RunJobEx(context.Background(), BenchJob(config.Baseline(), bench), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("profiled run returned no profile")
	}
	if res.Tier != TierSimulated {
		t.Fatalf("tier = %q, want %q on a cold scheduler", res.Tier, TierSimulated)
	}
	b, err := json.Marshal(res.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProfileDeterministicAcrossRunsAndWorkerCounts(t *testing.T) {
	first := profileBytes(t, 1, "leukocyte")
	again := profileBytes(t, 1, "leukocyte")
	if !bytes.Equal(first, again) {
		t.Fatal("same cell profiled twice produced different JSON")
	}
	parallel := profileBytes(t, 8, "leukocyte")
	if !bytes.Equal(first, parallel) {
		t.Fatal("profile differs between -j 1 and -j 8 schedulers")
	}
}

func TestProfilingDoesNotPerturbMetrics(t *testing.T) {
	// The observer-effect gate: attaching the profiler must not change a
	// single metric bit — profiled and unprofiled runs are the same cell.
	job := BenchJob(config.Baseline(), "leukocyte")
	plain, err := NewScheduler().RunJobEx(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := NewScheduler().RunJobEx(context.Background(), job, true)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Metrics)
	b, _ := json.Marshal(profiled.Metrics)
	if !bytes.Equal(a, b) {
		t.Fatalf("profiling changed the metrics:\n--- off ---\n%s\n--- on ---\n%s", a, b)
	}
}

func TestProfileUpgradeKeepsMemoizedMetrics(t *testing.T) {
	// A cell first run without profiling must serve later profiled
	// requests from the memo tier: metrics identical, profile computed by
	// re-running the deterministic simulation once.
	s := NewScheduler()
	job := BenchJob(config.Baseline(), "leukocyte")
	plain, err := s.RunJobEx(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.RunJobEx(context.Background(), job, true)
	if err != nil {
		t.Fatal(err)
	}
	if up.Tier != TierSimulated {
		// The upgrade owner really re-simulates (for the profile), so its
		// tier is "simulated"; concurrent waiters see "memo".
		t.Fatalf("tier = %q, want %q (the upgrade re-runs the cell)", up.Tier, TierSimulated)
	}
	if up.Profile == nil {
		t.Fatal("profile upgrade returned no profile")
	}
	a, _ := json.Marshal(plain.Metrics)
	b, _ := json.Marshal(up.Metrics)
	if !bytes.Equal(a, b) {
		t.Fatal("profile upgrade changed the memoized metrics")
	}
}

func TestConcurrentProfiledRequestsShareOneUpgrade(t *testing.T) {
	s := NewScheduler()
	job := BenchJob(config.Baseline(), "leukocyte")
	if _, err := s.RunJobEx(context.Background(), job, false); err != nil {
		t.Fatal(err)
	}
	base := s.Stats().Simulated
	var wg sync.WaitGroup
	profiles := make([][]byte, 8)
	for i := range profiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.RunJobEx(context.Background(), job, true)
			if err != nil || res.Profile == nil {
				t.Errorf("profiled request %d: res=%+v err=%v", i, res, err)
				return
			}
			profiles[i], _ = json.Marshal(res.Profile)
		}(i)
	}
	wg.Wait()
	for _, p := range profiles[1:] {
		if !bytes.Equal(p, profiles[0]) {
			t.Fatal("concurrent profiled requests returned different profiles")
		}
	}
	if got := s.Stats().Simulated - base; got != 1 {
		t.Fatalf("profile upgrade simulated %d times, want 1 (waiters must share)", got)
	}
}

// gatedCache is a ResultCache whose second Lookup parks until release is
// closed: the first lookup is the plain run's, the second the profile
// re-run's, so a test can hold that re-run in flight.
type gatedCache struct {
	*memCache
	lookups         atomic.Int32
	parked, release chan struct{}
}

func (c *gatedCache) Lookup(j Job) (core.Metrics, *obsv.Profile, bool) {
	if c.lookups.Add(1) == 2 {
		close(c.parked)
		<-c.release
	}
	return c.memCache.Lookup(j)
}

// TestUnprofiledRequestDoesNotWaitBehindProfileRerun: while a profile
// re-run of an already memoized cell is in flight, an unprofiled request is
// a memo hit on the plain run, at once; a second profiled request joins the
// re-run instead of starting another.
func TestUnprofiledRequestDoesNotWaitBehindProfileRerun(t *testing.T) {
	cache := &gatedCache{memCache: newMemCache(), parked: make(chan struct{}), release: make(chan struct{})}
	s := NewScheduler(WithResultCache(cache))
	job := BenchJob(config.Baseline(), "leukocyte")
	plain, err := s.RunJobEx(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan RunResult, 2)
	profiled := func() {
		res, err := s.RunJobEx(context.Background(), job, true)
		if err != nil {
			t.Error(err)
		}
		results <- res
	}
	go profiled()
	<-cache.parked // the re-run owns the profiled slot and is held in its store lookup

	got := make(chan RunResult, 1)
	go func() {
		res, err := s.RunJobEx(context.Background(), job, false)
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()
	select {
	case res := <-got:
		if res.Tier != TierMemo || res.Metrics.Cycles != plain.Metrics.Cycles {
			t.Fatalf("unprofiled request during the re-run: tier %q, %d cycles; want a memo hit on the plain run's %d",
				res.Tier, res.Metrics.Cycles, plain.Metrics.Cycles)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unprofiled request waited behind the profile re-run")
	}

	go profiled()
	close(cache.release)
	tiers := map[string]int{}
	for range 2 {
		res := <-results
		if res.Profile == nil {
			t.Fatal("profiled request returned no profile")
		}
		tiers[res.Tier]++
	}
	if tiers[TierSimulated] != 1 || tiers[TierMemo] != 1 {
		t.Fatalf("profiled tiers = %v, want one simulated (the owner) and one memo (the joiner)", tiers)
	}
	if st := s.Stats(); st.Simulated != 2 || cache.lookups.Load() != 2 {
		t.Fatalf("stats = %+v with %d store lookups, want 2 simulations (plain, profiled) and 2 lookups", st, cache.lookups.Load())
	}
}

// TestResultCacheCarriesProfiles: a profiled run's store entry serves both
// kinds of request on a fresh scheduler, while a metrics-only entry is a
// hit for an unprofiled request only.
func TestResultCacheCarriesProfiles(t *testing.T) {
	job := BenchJob(config.Baseline(), "leukocyte")
	for _, first := range []bool{false, true} {
		cache := newMemCache()
		if _, err := NewScheduler(WithResultCache(cache)).RunJobEx(context.Background(), job, first); err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(WithResultCache(cache))
		plain, err := s.RunJobEx(context.Background(), job, false)
		if err != nil || plain.Tier != TierDisk {
			t.Fatalf("entry profiled=%v, unprofiled request: tier %q err %v, want a store hit", first, plain.Tier, err)
		}
		prof, err := NewScheduler(WithResultCache(cache)).RunJobEx(context.Background(), job, true)
		want := map[bool]string{false: TierSimulated, true: TierDisk}[first]
		if err != nil || prof.Tier != want || prof.Profile == nil {
			t.Fatalf("entry profiled=%v, profiled request: tier %q profile %v err %v, want tier %q with a profile",
				first, prof.Tier, prof.Profile != nil, err, want)
		}
	}
}
