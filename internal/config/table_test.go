package config

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tableModes is one configuration per liveness regime: every predicate is
// true in at least one of them and false in at least one.
func tableModes() []Config {
	return []Config{Baseline(), InfiniteDRAM(), InfiniteBW(), FixedL1MissLatency(120)}
}

// poke overwrites a numeric (or Mode) row's field.
func poke(k *knob, v float64) {
	switch p := k.field.(type) {
	case *int:
		*p = int(v)
	case *int64:
		*p = int64(v)
	case *float64:
		*p = v
	case *Mode:
		*p = Mode(v)
	}
}

// TestKnobTableInvariant pins validated ⇔ live ⇔ hashed, per mode × every
// row. A dead knob holding hostile garbage still validates and leaves the
// ConfigID alone; a live knob just outside its range is a Validate error
// naming the canonical path, and any change to it moves the ConfigID.
func TestKnobTableInvariant(t *testing.T) {
	for _, clean := range tableModes() {
		if err := clean.Validate(); err != nil {
			t.Fatalf("%s: %v", clean.Name, err)
		}
		cleanID := clean.ConfigID()
		for i := range knobTable(&clean) {
			// try applies one mutation of row i to a fresh copy.
			try := func(mutate func(k *knob)) (Config, *knob) {
				cfg := clean
				rows := knobTable(&cfg)
				mutate(&rows[i])
				return cfg, &rows[i]
			}
			probe, k := try(func(*knob) {})
			live := k.live&probe.regime() != 0
			typ, _ := k.typeAndValue()

			if !live {
				garbage := []float64{-1, 1 << 40}
				if typ == "float" {
					garbage = append(garbage, math.NaN())
				}
				for _, g := range garbage {
					cfg, _ := try(func(k *knob) {
						if b, ok := k.field.(*bool); ok {
							*b = !*b
						}
						poke(k, g)
					})
					if err := cfg.Validate(); err != nil {
						t.Errorf("%s: dead %s=%v rejected though Canonical zeroes it: %v", clean.Name, k.path, g, err)
					}
					if cfg.ConfigID() != cleanID {
						t.Errorf("%s: dead %s=%v moved the ConfigID", clean.Name, k.path, g)
					}
				}
				continue
			}

			// Live: hashed (the name is a label, excluded by Identity)...
			if k.path != "name" {
				cfg, _ := try(func(k *knob) {
					switch p := k.field.(type) {
					case *int:
						*p++
					case *int64:
						*p++
					case *float64:
						*p += 0.5
					case *bool:
						*p = !*p
					case *Mode:
						*p = (*p + 1) % 3
					}
				})
				if cfg.ConfigID() == cleanID {
					t.Errorf("%s: perturbing live %s did not change the ConfigID", clean.Name, k.path)
				}
			}
			// ...and validated.
			var outside []float64
			switch typ {
			case "int":
				outside = []float64{k.min - 1}
				if k.max != 0 {
					outside = append(outside, k.max+1)
				}
			case "float":
				outside = []float64{k.min, math.NaN(), k.max * 2}
			case "mode":
				outside = []float64{3}
			}
			for _, v := range outside {
				cfg, _ := try(func(k *knob) { poke(k, v) })
				if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), k.path) {
					t.Errorf("%s: live %s=%v: Validate = %v, want an error naming the path", clean.Name, k.path, v, err)
				}
			}
		}
	}
}

// TestKnobsGolden: the knob catalog GET /v1/knobs serves is a fixed
// point. Bounds, types, baselines and order move only with an edit to
// testdata/knobs.golden.json that a reviewer can read.
func TestKnobsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/knobs.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(Knobs(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("Knobs() drifted from testdata/knobs.golden.json:\n%s", got)
	}
}

var identitySink Config

// TestValidateAndIdentityDoNotAllocate: both sit on every job resolution,
// so on a valid configuration they are free.
func TestValidateAndIdentityDoNotAllocate(t *testing.T) {
	cfgs := []Config{FixedL1MissLatency(120)}
	for _, c := range Presets() {
		cfgs = append(cfgs, c)
	}
	for i := range cfgs {
		cfg := &cfgs[i]
		if n := testing.AllocsPerRun(100, func() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate allocates %v times per valid call", cfg.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { identitySink = cfg.Identity() }); n != 0 {
			t.Errorf("%s: Identity allocates %v times per call", cfg.Name, n)
		}
	}
}

// TestValidateSurvivesOverflowingProducts: the cross-field divisibility
// checks multiply knobs the range loop may just have rejected; a product
// that overflows to zero must be an error, not a divide-by-zero panic in
// the daemon's request path.
func TestValidateSurvivesOverflowingProducts(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"L2 banks × ways × line", func(c *Config) { c.L2.NumBanks, c.L2.Ways = 1<<40, 1<<17 }},
		{"L1 line × ways", func(c *Config) { c.L1.LineBytes, c.L2.LineBytes, c.L1.Ways = 1<<40, 1<<40, 1<<24 }},
		{"DRAM partitions × 8", func(c *Config) { c.DRAM.NumPartitions = 1 << 61 }},
	} {
		c := Baseline()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestTableIIIFieldIsItsKnob: each Table III row reads and writes, on any
// Config, the field its knob path names — the one Set assigns.
func TestTableIIIFieldIsItsKnob(t *testing.T) {
	for r := range TableIII {
		row := &TableIII[r]
		for i, path := range row.Knobs {
			c := Baseline()
			if err := c.Set(path + "=1234567"); err != nil {
				t.Fatal(err)
			}
			if got := *row.Field(&c, i); got != 1234567 {
				t.Errorf("%s: Field reads %d after Set %s=1234567", row.Param, got, path)
			}
		}
	}
}
