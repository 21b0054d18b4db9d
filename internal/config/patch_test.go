package config

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPatchAppliesDelta(t *testing.T) {
	var p Patch
	doc := `{"base": "baseline", "L1": {"MSHREntries": 128}, "Core": {"MemPipelineWidth": 40}}`
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	if p.Base != "baseline" {
		t.Fatalf("base = %q", p.Base)
	}
	cfg, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.MSHREntries != 128 || cfg.Core.MemPipelineWidth != 40 {
		t.Fatalf("patched knobs = %d/%d, want 128/40", cfg.L1.MSHREntries, cfg.Core.MemPipelineWidth)
	}
	// Untouched fields keep the base's values.
	if cfg.L1.MissQueueEntries != 8 || cfg.L2.NumBanks != 12 {
		t.Fatal("patch disturbed untouched fields")
	}
	if cfg.Name != "baseline-patched" {
		t.Fatalf("patched name = %q, want the base name suffixed", cfg.Name)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPatchEqualsHandwrittenConfig is the acceptance-criterion parity:
// a Patch on baseline and the equivalent handwritten inline config must
// share a ConfigID.
func TestPatchEqualsHandwrittenConfig(t *testing.T) {
	var p Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":128}}`), &p); err != nil {
		t.Fatal(err)
	}
	patched, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	hand := Baseline()
	hand.Name = "my-mitigation"
	hand.L1.MSHREntries = 128
	if patched.ConfigID() != hand.ConfigID() {
		t.Fatalf("patch ID %s != handwritten ID %s", patched.ConfigID(), hand.ConfigID())
	}
	// And an empty delta is the preset's twin.
	var twin Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline"}`), &twin); err != nil {
		t.Fatal(err)
	}
	cfg, err := twin.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ConfigID() != Baseline().ConfigID() {
		t.Fatal("empty patch does not share the preset's identity")
	}
}

func TestPatchDefaultsToBaseline(t *testing.T) {
	var p Patch
	if err := json.Unmarshal([]byte(`{"L2":{"NumBanks":24}}`), &p); err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L2.NumBanks != 24 || cfg.Core.NumCores != 15 {
		t.Fatalf("patched config = %+v", cfg.L2)
	}
}

func TestPatchRejectsGarbage(t *testing.T) {
	var p Patch
	if err := json.Unmarshal([]byte(`{"base":"nope"}`), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown base: err = %v", err)
	}
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MshrEntriez":1}}`), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(); err == nil {
		t.Fatal("typo'd field silently ignored")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &p); err == nil {
		t.Fatal("non-object patch accepted")
	}
}

func TestPatchJSONRoundTrip(t *testing.T) {
	var p Patch
	doc := `{"base":"L2-4x","L1":{"MSHREntries":64}}`
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Patch
	if err := json.Unmarshal(out, &q); err != nil {
		t.Fatal(err)
	}
	a, err := p.Apply()
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigID() != b.ConfigID() {
		t.Fatal("patch JSON round trip changed the applied identity")
	}
}

func TestSetKnobs(t *testing.T) {
	cfg := Baseline()
	err := cfg.Set("l1.mshr_entries=128", "L2.MissQueueEntries=32", "dram.timing.rcd=14",
		"core.clockmhz=1600.5", "dram.infinite=true", "name=tuned", "mode=normal")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.MSHREntries != 128 || cfg.L2.MissQueueEntries != 32 || cfg.DRAM.Timing.RCD != 14 {
		t.Fatalf("set knobs = %d/%d/%d", cfg.L1.MSHREntries, cfg.L2.MissQueueEntries, cfg.DRAM.Timing.RCD)
	}
	if cfg.Core.ClockMHz != 1600.5 || !cfg.DRAM.Infinite || cfg.Name != "tuned" || cfg.Mode != ModeNormal {
		t.Fatalf("set knobs = %+v", cfg)
	}
}

func TestSetRejectsBadKnobs(t *testing.T) {
	cfg := Baseline()
	for _, bad := range []string{
		"l1.mshr_entries",        // no value
		"l1.nope=1",              // unknown knob
		"nope.mshr_entries=1",    // unknown group
		"l1=1",                   // group, not a knob
		"l1.mshr_entries.deep=1", // scalar has no members
		"l1.mshr_entries=abc",    // not an integer
		"dram.infinite=perhaps",  // not a boolean
		"mode=turbo",             // unknown mode name
		"core.clockmhz=fast",     // not a number
		"core.clock_mhz=NaN",     // not finite
		"core.clock_mhz=Inf",
		"core.clock_mhz=-Inf",
		"core.clock_mhz=1e400", // overflows to Inf
	} {
		// A refused list leaves the config as it was, even after an
		// assignment that parsed.
		if err := cfg.Set("l1.mshr_entries=7", bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
		if cfg != Baseline() {
			t.Fatalf("%q: a refused Set changed the config", bad)
		}
	}
	// Errors must name the valid knobs at the failing level.
	err := cfg.Set("l1.nope=1")
	if err == nil || !strings.Contains(err.Error(), "l1.mshr_entries") {
		t.Fatalf("err = %v, want the valid knob names", err)
	}
}

// TestSetEqualsPatchDelta: the -set path and a handwritten patch must
// resolve to the same identity — the parity gpusim and gpusimctl rely on.
func TestSetEqualsPatchDelta(t *testing.T) {
	fromSet := Baseline()
	if err := fromSet.Set("l1.mshr_entries=128", "l1.miss_queue_entries=32"); err != nil {
		t.Fatal(err)
	}
	var hand Patch
	if err := json.Unmarshal([]byte(`{"base":"baseline","L1":{"MSHREntries":128,"MissQueueEntries":32}}`), &hand); err != nil {
		t.Fatal(err)
	}
	fromDoc, err := hand.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if fromSet.ConfigID() != fromDoc.ConfigID() {
		t.Fatal("-set and handwritten patch diverge")
	}
}

func TestParseConfigDocDetectsForm(t *testing.T) {
	cfg, patch, err := ParseConfigDoc("t", []byte(`{"base":"baseline","L1":{"MSHREntries":64}}`))
	if err != nil || cfg != nil || patch == nil {
		t.Fatalf("patch doc: cfg=%v patch=%v err=%v", cfg, patch, err)
	}
	full, err := json.Marshal(Baseline())
	if err != nil {
		t.Fatal(err)
	}
	cfg, patch, err = ParseConfigDoc("t", full)
	if err != nil || cfg == nil || patch != nil {
		t.Fatalf("full doc: cfg=%v patch=%v err=%v", cfg, patch, err)
	}
	if cfg.ConfigID() != Baseline().ConfigID() {
		t.Fatal("full doc round trip changed identity")
	}
	if _, _, err := ParseConfigDoc("t", []byte(`{"NotAField":1}`)); err == nil {
		t.Fatal("unknown field in full config accepted")
	}
}

// TestValidateRejectsHostileConfigs: untrusted inline configs must not
// be able to OOM (huge allocations), panic (divisions by zero in
// geometry derivation, unknown modes reaching a nil latency oracle) or
// livelock (runaway clock ratios) the simulator.
func TestValidateRejectsHostileConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero line size", func(c *Config) { c.L1.LineBytes, c.L2.LineBytes = 0, 0 }},
		{"non-pow2 line size", func(c *Config) { c.L1.LineBytes, c.L2.LineBytes = 96, 96 }},
		{"mismatched line sizes", func(c *Config) { c.L2.LineBytes = 256 }},
		{"non-divisible L1 geometry", func(c *Config) { c.L1.SizeBytes = 16*1024 + 128 }},
		{"non-divisible L2 banking", func(c *Config) { c.L2.NumBanks = 7 }},
		{"zero icache ways", func(c *Config) { c.L1.ICacheWays = 0 }},
		{"negative L1 miss queue", func(c *Config) { c.L1.MissQueueEntries = -8 }},
		{"negative L2 access queue", func(c *Config) { c.L2.AccessQueueEntries = -1 }},
		{"negative DRAM sched queue", func(c *Config) { c.DRAM.SchedQueueEntries = -16 }},
		{"huge queue", func(c *Config) { c.L2.MissQueueEntries = 1 << 30 }},
		{"huge cache", func(c *Config) { c.L1.SizeBytes = 1 << 40 }},
		{"huge warp count", func(c *Config) { c.Core.WarpsPerCore = 1 << 20 }},
		{"huge core*warp product", func(c *Config) { c.Core.NumCores, c.Core.WarpsPerCore = 1024, 16384 }},
		{"NaN core clock", func(c *Config) { c.Core.ClockMHz = math.NaN() }},
		{"NaN icnt clock", func(c *Config) { c.Icnt.ClockMHz = math.NaN() }},
		{"negative DRAM clock", func(c *Config) { c.DRAM.ClockMHz = -924 }},
		{"runaway clock ratio", func(c *Config) { c.Core.ClockMHz = 1e-3; c.DRAM.ClockMHz = 1e5 }},
		{"zero bus width", func(c *Config) { c.DRAM.BusWidthBits = 0 }},
		{"zero data rate", func(c *Config) { c.DRAM.DataRate = 0 }},
		{"zero DRAM banks", func(c *Config) { c.DRAM.BanksPerChip = 0 }},
		{"negative timing", func(c *Config) { c.DRAM.Timing.RAS = -1 }},
		{"unknown mode", func(c *Config) { c.Mode = 99 }},
		{"negative MaxCycles", func(c *Config) { c.MaxCycles = -1 }},
		{"negative fixed latency", func(c *Config) { c.Mode = ModeFixedL1MissLat; c.FixedL1MissLatency = -1 }},
		{"huge ideal latency", func(c *Config) { c.Mode = ModeInfiniteBW; c.IdealMemLatency = 1 << 40 }},
	} {
		c := Baseline()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
