package core

import (
	"reflect"
	"runtime"
	"testing"

	"gpumembw/internal/config"
)

// deadKnobModes is one configuration per liveness regime of the knob
// table (FR-FCFS DRAM, infinite DRAM, P∞, fixed latency).
func deadKnobModes() []config.Config {
	return []config.Config{
		smallCfg(config.Baseline()), smallCfg(config.InfiniteDRAM()),
		smallCfg(config.InfiniteBW()), smallCfg(config.FixedL1MissLatency(120)),
	}
}

// TestDeadKnobsAreUnread is the simulator's half of validated ⇔ live ⇔
// hashed: a knob the ConfigID ignores under a mode may hold hostile
// garbage there, and the GPU still builds and runs to the clean twin's
// metrics — so no constructor or tick reads a field Validate left
// unchecked.
func TestDeadKnobsAreUnread(t *testing.T) {
	wl := tinyWorkload(t)
	for _, clean := range deadKnobModes() {
		cleanID, want := clean.ConfigID(), mustRun(t, clean, wl)
		dead := 0
		for _, k := range config.Knobs() {
			garbage := []string{"-1", "1099511627776"}
			switch k.Type {
			case "bool":
				garbage = []string{"true", "false"}
			case "string", "mode":
				continue // live in every mode
			}
			for _, g := range garbage {
				cfg := clean
				if err := cfg.Set(k.Path + "=" + g); err != nil {
					t.Fatal(err)
				}
				if cfg == clean || cfg.ConfigID() != cleanID {
					continue // the clean value itself, or a live knob
				}
				dead++
				if got := mustRun(t, cfg, wl); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: dead %s=%s changed the metrics", clean.Name, k.Path, g)
				}
			}
		}
		if dead == 0 {
			t.Errorf("%s: no dead knob found — the test checked nothing", clean.Name)
		}
	}
}

// TestDeadL1MissPathKnobsDoNotAllocate: the ideal modes build an
// unlimited L1 miss path whatever its four (dead) knobs say; a million-
// entry setting must cost nothing and change nothing.
func TestDeadL1MissPathKnobsDoNotAllocate(t *testing.T) {
	wl := tinyWorkload(t)
	newAllocs := func(cfg config.Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(cfg, wl); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, plain := range []config.Config{smallCfg(config.InfiniteBW()), smallCfg(config.FixedL1MissLatency(120))} {
		huge := plain
		huge.L1.MSHREntries, huge.L1.MSHRMaxMerge = 1<<20, 1<<20
		huge.L1.MissQueueEntries, huge.L1.ResponseFIFO = 1<<20, 1<<20
		if p, h := newAllocs(plain), newAllocs(huge); h > 2*p {
			t.Errorf("%s: New allocates %d B with the dead L1 miss-path knobs at 1<<20, %d B plain", plain.Name, h, p)
		}
		if !reflect.DeepEqual(mustRun(t, huge, wl), mustRun(t, plain, wl)) {
			t.Errorf("%s: dead L1 miss-path knobs changed the metrics", plain.Name)
		}
	}
}
