package config

import (
	"encoding/json"
	"testing"
)

// FuzzKnobSet drives Set, which resolves each -set path through the knob
// table, with arbitrary assignments. Any input must either be refused,
// leaving the config unchanged, or set a config that survives its JSON
// wire form and canonicalizes — never panic.
func FuzzKnobSet(f *testing.F) {
	seeds := []string{
		"L2.HitLatency=42",
		"l2.hitlatency=42",
		"DRAM.BandwidthGBs=900.5",
		"L1.MSHREntries=128",
		"NumCores=0",
		"=1",
		"L2.=3",
		"L2..HitLatency=3",
		"L2.HitLatency",
		"L2.HitLatency=notanumber",
		"Nope.Deep.Path=1",
		"L2.HitLatency=999999999999999999999999",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, assignment string) {
		// A refused list leaves the config as it was, even after an
		// assignment that parsed.
		cfg := Baseline()
		if err := cfg.Set("l1.mshr_entries=7", assignment); err != nil {
			if cfg != Baseline() {
				t.Fatalf("refused %q changed the config", assignment)
			}
			return
		}
		// An accepted value is finite, so the config survives its wire
		// form (a name may lose invalid UTF-8, which ConfigID excludes),
		// and stays canonicalizable.
		wire, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%q set a config that does not marshal: %v", assignment, err)
		}
		var back Config
		if err := json.Unmarshal(wire, &back); err != nil || back.ConfigID() != cfg.ConfigID() {
			t.Fatalf("%q: the config does not round-trip its JSON (%v)", assignment, err)
		}
		cfg.Canonical()
	})
}

// FuzzConfigDoc feeds arbitrary bytes through ParseConfigDoc — the
// decoder behind -config-file and every inline config/patch a client can
// send. Outputs must either error or survive the full resolve pipeline.
func FuzzConfigDoc(f *testing.F) {
	seeds := []string{
		`{"base":"baseline","L2":{"HitLatency":42}}`,
		`{"base":"baseline"}`,
		`{"base":"nope","L1":{"MSHREntries":1}}`,
		`{"NumCores":16,"DRAM":{"BandwidthGBs":336}}`,
		`{"base":"baseline","NumCores":"sixteen"}`,
		`{}`,
		`null`,
		`[]`,
		`{"base":42}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, patch, err := ParseConfigDoc("fuzz", data)
		if err != nil {
			return
		}
		if cfg != nil {
			if cfg.Validate() == nil {
				cfg.Canonical()
			}
			return
		}
		if patch == nil {
			t.Fatalf("ParseConfigDoc returned neither config, patch nor error for %q", data)
		}
		// Patch values must round-trip through their wire form...
		wire, err := json.Marshal(*patch)
		if err != nil {
			t.Fatalf("accepted patch does not marshal: %v", err)
		}
		var back Patch
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("marshaled patch does not decode: %v\n%s", err, wire)
		}
		// ...and Apply must resolve or reject, never panic.
		if applied, err := patch.Apply(); err == nil {
			applied.Canonical()
		}
	})
}
