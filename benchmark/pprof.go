package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// profileFor is how long a workload is run under the CPU profiler: at the
// profiler's 100 Hz, long enough for a few hundred samples.
const profileFor = 4 * time.Second

// shareLayers are the layers a CPU sample can be charged to: the
// program's packages by their module names.
var shareLayers = []string{"smcore", "cache", "icnt", "l2", "dram", "sched", "mem", "obsv", "core",
	"trace", "config", "exp", "api", "client", "server", "explore", "metrics"}

// gcRoots are the runtime functions under which a sample is the garbage
// collector's work, whatever its leaf.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcMarkTermination": true, "runtime.gcStart": true,
}

// cellLabel is the pprof label the cells workloads put on each cell's
// samples, so that one profile also yields shares per cell.
const cellLabel = "cell"

// cpuProfile is a CPU profile reduced to shares: per layer (keys of
// shareLayers plus "gc" and "other", summing to 1) over all samples, and
// the same over the samples of each labelled cell.
type cpuProfile struct {
	samples int
	shares  map[string]float64
	byCell  map[string]map[string]float64
}

// cpuShares runs fn under the process's own CPU profiler. A sample is
// charged to the innermost frame of its stack that lies in one of the
// program's layers, so the allocator or memmove called from smcore is
// smcore's time; a stack under the collector is "gc", one with no layer
// frame (HTTP plumbing, the harness) is "other".
func cpuShares(fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{shares: make(map[string]float64), byCell: make(map[string]map[string]float64)}
	cellTotal := make(map[string]float64)
	for _, s := range stacks {
		layer := classify(s.funcs)
		p.shares[layer] += float64(s.count)
		p.samples += int(s.count)
		if s.cell != "" {
			if p.byCell[s.cell] == nil {
				p.byCell[s.cell] = make(map[string]float64)
			}
			p.byCell[s.cell][layer] += float64(s.count)
			cellTotal[s.cell] += float64(s.count)
		}
	}
	if p.samples == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range p.shares {
		p.shares[k] /= float64(p.samples)
	}
	for cell, m := range p.byCell {
		for k := range m {
			m[k] /= cellTotal[cell]
		}
	}
	return p, nil
}

// classify charges one stack (leaf first) to a layer, "gc" or "other".
func classify(funcs []string) string {
	for _, f := range funcs {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, f := range funcs {
		if l := layerOfFunc(f); l != "" {
			return l
		}
	}
	return "other"
}

// layerOfFunc maps a symbol such as
// "gpumembw/internal/cache.(*MSHR[go.shape.*uint8]).Allocate" to its
// layer ("cache"), or "" when it lies outside the program's layers.
func layerOfFunc(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "gpumembw/client":
		return "client"
	case strings.HasPrefix(pkg, "gpumembw/internal/"):
		layer := strings.TrimPrefix(pkg, "gpumembw/internal/")
		for _, l := range shareLayers {
			if l == layer {
				return l
			}
		}
	}
	return ""
}

// report writes the per-layer shares and keeps the sentence that answers
// where the workload's host time goes.
func (p *cpuProfile) report(e *env) {
	for _, l := range shareLayers {
		e.res.set(l+".cpu_share", p.shares[l], p.samples)
	}
	e.res.set("runtime.gc_cpu_share", p.shares["gc"], p.samples)
	e.res.set("runtime.other_cpu_share", p.shares["other"], p.samples)
	e.answer = describeShares(p.shares)
	for _, cell := range sortedKeys(p.byCell) {
		e.answer += fmt.Sprintf("\n  %-28s %s", cell, describeShares(p.byCell[cell]))
	}
}

// describeShares lists the shares from the largest down, leaving out
// those below half a percent.
func describeShares(shares map[string]float64) string {
	keys := sortedKeys(shares)
	sort.SliceStable(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	var parts []string
	for _, k := range keys {
		if shares[k] >= 0.005 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*shares[k]))
		}
	}
	return strings.Join(parts, ", ")
}

// stack is one profile sample: its function names, leaf first, and how
// many times it was seen.
type stack struct {
	funcs []string
	count int64
	cell  string // value of the cellLabel label, if any
}

// decodeProfile reads a gzipped profile.proto, as runtime/pprof writes
// it, down to what cpuShares needs: per sample, the function names of its
// stack (inlined frames expanded) and its first value, the sample count.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs       []uint64
		count      int64
		labelK, lV []uint64 // string-table indices of the label keys and values
	}
	var (
		samples []sample
		locFns  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		fnName  = make(map[uint64]uint64)   // function id -> string-table index
		strs    []string
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					return protoRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value
					return protoRepeated(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				case 3: // Label
					var k, str uint64
					err := protoFields(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							k = v
						case 2:
							str = v
						}
						return nil
					})
					s.labelK, s.lV = append(s.labelK, k), append(s.lV, str)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for i, k := range s.labelK {
			if k < uint64(len(strs)) && strs[k] == cellLabel && s.lV[i] < uint64(len(strs)) {
				st.cell = strs[s.lV[i]]
			}
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

func protoVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// protoFields calls fn for every field of one message: v holds a varint
// or fixed value, b the bytes of a length-delimited one.
func protoFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, rest, err := protoVarint(b)
		if err != nil {
			return err
		}
		b = rest
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, b, err = protoVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := protoVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			payload, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// protoRepeated feeds fn the elements of a repeated varint field, which
// arrives either packed (b set) or one element per field (v set).
func protoRepeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, rest, err := protoVarint(b)
		if err != nil {
			return err
		}
		fn(x)
		b = rest
	}
	return nil
}
