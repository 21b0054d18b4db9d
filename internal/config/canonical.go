package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// liveness is the set of regimes in which the simulator reads a knob. A
// configuration is in exactly one regime (see regime); each row of the
// knob table names the regimes it is live in. A knob is range-checked by
// Validate and hashed by ConfigID exactly where it is live, and core.New
// and smcore.NewCore read no field where it is dead.
type liveness uint8

const (
	// The four regimes. ModeNormal builds the full bandwidth-limited
	// hierarchy and splits on DRAM.Infinite: either the FR-FCFS channels
	// (banks, rows, scheduler and return queues, timing) exist, or a
	// fixed-latency pipe (the paper's P_DRAM) replaces them and only its
	// latency is read.
	frfcfs liveness = 1 << iota
	infiniteDRAM
	// ModeInfiniteBW (P∞) removes every structural limit: the L1 miss
	// path, the crossbars and the DRAM are never built. Its own knobs are
	// the latency oracle's two minimum latencies.
	infiniteBW
	// ModeFixedL1MissLat services every L1 miss at one constant latency:
	// everything beyond the L1 is dead.
	fixedLatency

	// hierarchy: the L1 miss path (MSHRs, miss queue, response FIFO), both
	// crossbars, the L2 banks and the DRAM bus — all of ModeNormal.
	hierarchy = frfcfs | infiniteDRAM
	// functionalL2: the L2 tag-array geometry — timed under ModeNormal,
	// and all that remains of the L2 under P∞, where a functional tag
	// array backs the oracle's hit-or-miss decision.
	functionalL2 = hierarchy | infiniteBW
	// always: the cores, the L1/L1I tag arrays and the memory pipeline run
	// even under the ideal memory systems.
	always = ^liveness(0)
)

// regime returns the one regime c is in. An unknown mode is in none of
// the four, which leaves only the always-live rows — the mode among
// them — for Validate to reject.
func (c *Config) regime() liveness {
	switch {
	case c.Mode == ModeNormal && !c.DRAM.Infinite:
		return frfcfs
	case c.Mode == ModeNormal:
		return infiniteDRAM
	case c.Mode == ModeInfiniteBW:
		return infiniteBW
	case c.Mode == ModeFixedL1MissLat:
		return fixedLatency
	}
	return always &^ (functionalL2 | fixedLatency)
}

// Canonical returns the configuration in canonical form: every knob that
// is dead in this configuration's regime is zeroed. Two configurations
// with equal canonical forms assemble behaviorally identical GPUs, so
// different spellings of the same silicon — a fixed-latency design point
// dragging along the baseline's L2 and DRAM tables, a P∞ config with
// leftover crossbar buffers — collapse to one value. ConfigID (and
// therefore every memo cell, job ID and disk-cache entry keyed on it)
// hashes exactly this form.
func (c Config) Canonical() Config {
	rows, in := knobTable(&c), c.regime()
	for i := range rows {
		if rows[i].live&in == 0 {
			rows[i].zero()
		}
	}
	return c
}

// Identity returns the canonical configuration with its provenance label
// (Name) cleared — the exact value ConfigID hashes. The name is excluded
// from hardware identity for the same reason trace.Spec's labels are
// excluded from workload identity: a renamed copy of the same silicon
// must share its simulation results. Experiment engines use Identity as
// a comparable memo key so job identity and ConfigID can never diverge.
func (c Config) Identity() Config {
	id := c.Canonical()
	id.Name = ""
	return id
}

// ConfigID returns a stable, content-addressed identifier of the
// hardware configuration: a hash over the canonical JSON of Identity.
// Semantically identical configurations — names, mode-dead leftovers
// and JSON key order aside — share an ID; any change that alters what
// the assembled GPU simulates changes it.
func (c Config) ConfigID() string {
	id := c.Identity()
	b, err := json.Marshal(id)
	if err != nil {
		// Only non-finite clock values (which Validate rejects) can defeat
		// Marshal; hash a deterministic textual form instead so ConfigID
		// is total and never panics on garbage input.
		b = []byte(fmt.Sprintf("%#v", id))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
