package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Patch is a sparse overlay on a named configuration preset: the paper's
// mitigation sweeps (Table III — more MSHRs, deeper miss queues, more L2
// banks, scaled DRAM) expressed as small diffs instead of 60-field
// blobs. Its JSON form is flat — a "base" key naming the preset, plus
// any subset of Config's own fields:
//
//	{"base": "baseline", "L1": {"MSHREntries": 128}}
//
// An empty base defaults to "baseline". A patch whose delta changes
// nothing the simulator consults is the preset's twin: it resolves to
// the same ConfigID and therefore shares the preset's simulation cell
// everywhere.
type Patch struct {
	// Base is the preset the delta overlays (see Names); "" means
	// "baseline".
	Base string
	// Delta is the sparse Config JSON object to apply. Field names are
	// Config's own (matched case-insensitively by encoding/json);
	// unknown fields are an Apply error, so a typo'd knob can never
	// silently no-op.
	Delta json.RawMessage
}

// UnmarshalJSON splits the flat wire form into Base and Delta.
func (p *Patch) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("config: patch must be a JSON object: %w", err)
	}
	p.Base = ""
	if raw, ok := m["base"]; ok {
		if err := json.Unmarshal(raw, &p.Base); err != nil {
			return fmt.Errorf("config: patch base must be a preset name: %w", err)
		}
		delete(m, "base")
	}
	delta, err := json.Marshal(m)
	if err != nil {
		return err
	}
	p.Delta = delta
	return nil
}

// MarshalJSON reassembles the flat wire form.
func (p Patch) MarshalJSON() ([]byte, error) {
	m := map[string]json.RawMessage{}
	if len(p.Delta) > 0 {
		if err := json.Unmarshal(p.Delta, &m); err != nil {
			return nil, fmt.Errorf("config: patch delta must be a JSON object: %w", err)
		}
	}
	if p.Base != "" {
		b, err := json.Marshal(p.Base)
		if err != nil {
			return nil, err
		}
		m["base"] = b
	}
	return json.Marshal(m)
}

// Apply resolves the base preset and overlays the delta, returning the
// concrete configuration. The result keeps the base's name suffixed with
// "-patched" unless the delta sets Name itself, so a patched config never
// masquerades as its pristine base in progress lines and job listings.
// Apply does not validate the result; callers pass it through
// Config.Validate like any other inline configuration.
func (p Patch) Apply() (Config, error) {
	base := p.Base
	if base == "" {
		base = "baseline"
	}
	cfg, err := ByName(base)
	if err != nil {
		return Config{}, fmt.Errorf("config: patch base: %w", err)
	}
	baseName := cfg.Name
	if err := ApplyDelta(&cfg, p.Delta); err != nil {
		return Config{}, err
	}
	if cfg.Name == baseName {
		cfg.Name = baseName + "-patched"
	}
	return cfg, nil
}

// ApplyDelta overlays a sparse Config JSON object onto cfg. Absent
// fields keep their current values (encoding/json merges object fields
// recursively); unknown fields are an error.
func ApplyDelta(cfg *Config, delta json.RawMessage) error {
	if len(delta) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(delta))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("config: apply delta: %w", err)
	}
	return nil
}

// ReadConfigFile loads one hardware-config document from a JSON file, or
// from stdin when path is "-" — the shared loader behind every CLI's
// -config-file flag, so the tools can never drift in what config files
// they accept. A document carrying a "base" key is a Patch; anything
// else is a full Config. Exactly one of the returns is non-nil. The
// document is parsed, not validated; validation happens where the config
// is used.
func ReadConfigFile(path string) (*Config, *Patch, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, err
	}
	return ParseConfigDoc(path, data)
}

// ParseConfigDoc parses a config document (full Config or Patch); name
// labels parse errors.
func ParseConfigDoc(name string, data []byte) (*Config, *Patch, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", name, err)
	}
	if _, ok := probe["base"]; ok {
		var p Patch
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", name, err)
		}
		return nil, &p, nil
	}
	var cfg Config
	if err := ApplyDelta(&cfg, data); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return &cfg, nil, nil
}
