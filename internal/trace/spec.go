// Package trace synthesizes the paper's 19 memory-intensive benchmarks
// (Table II: Rodinia, Mars/MapReduce, Parboil) as trace-driven kernels.
//
// The real CUDA binaries are unavailable in this reproduction, and the
// memory system only observes the request stream anyway, so each benchmark
// is modelled by a kernel whose instruction mix, thread-level parallelism,
// coalescing degree, working-set geometry, inter-core sharing, store
// fraction and code footprint are tuned to produce the stream properties
// the paper reports for its namesake (each spec in workloads.go carries a
// comment explaining the substitution).
//
// Address generation is a pure function of (core, warp, iteration,
// instruction), so re-evaluating it on a stalled issue attempt is free of
// side effects and the whole simulation stays deterministic.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gpumembw/internal/smcore"
)

// Pattern selects the address stream of a memory instruction.
type Pattern uint8

const (
	// PatStream walks fresh, unit-stride lines private to each warp —
	// fully coalesced streaming with no reuse (lbm, nn, stencil...).
	PatStream Pattern = iota
	// PatStrided emits LinesPerAccess lines spread across memory per
	// instruction — uncoalesced access (graph traversals, sc).
	PatStrided
	// PatRandomWS draws lines uniformly from a device-wide working set
	// shared by all cores; reuse is set by the working-set size.
	PatRandomWS
	// PatHotShared draws a SharedFrac fraction of lines from a small,
	// heavily shared region and the rest from the working set.
	PatHotShared
	// PatTiled draws lines from a per-core tile (blocked reuse, mm-like):
	// bigger than the L1, small enough that all tiles fit in the L2.
	PatTiled
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatStream:
		return "stream"
	case PatStrided:
		return "strided"
	case PatRandomWS:
		return "random-ws"
	case PatHotShared:
		return "hot-shared"
	case PatTiled:
		return "tiled"
	default:
		return "unknown"
	}
}

// ParsePattern is the inverse of Pattern.String.
func ParsePattern(s string) (Pattern, error) {
	for p := PatStream; p <= PatTiled; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown pattern %q (known: stream, strided, random-ws, hot-shared, tiled)", s)
}

// MarshalJSON encodes known patterns by name ("stream", "strided", ...)
// so spec files stay readable; out-of-range values fall back to their
// numeric form rather than failing, keeping Spec always marshalable.
func (p Pattern) MarshalJSON() ([]byte, error) {
	if p > PatTiled {
		return json.Marshal(uint8(p))
	}
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts either a pattern name or its numeric value.
func (p *Pattern) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		v, err := ParsePattern(name)
		if err != nil {
			return err
		}
		*p = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("trace: pattern must be a name or a number, got %s", data)
	}
	*p = Pattern(n)
	return nil
}

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name  string
	Suite string // Rodinia, MapReduce, Parboil (provenance only)

	WarpsPerCore int // thread-level parallelism
	Iters        int // loop iterations per warp

	LoadsPerIter  int
	StoresPerIter int
	ALUPerIter    int // light arithmetic per iteration
	HeavyPerIter  int // long-latency arithmetic per iteration

	// DepDist is the number of independent instructions between a load
	// and its first consumer (instruction-level latency tolerance).
	DepDist int

	Pattern        Pattern
	LinesPerAccess int     // coalescing degree (1 = fully coalesced)
	StridePages    int     // line stride between transactions (PatStrided)
	WorkingSetKB   int     // PatRandomWS / PatHotShared / PatTiled footprint
	SharedKB       int     // hot-region size (PatHotShared)
	SharedFrac     float64 // fraction of loads hitting the hot region

	// StoreWindowLines, when positive, wraps each warp's store stream
	// within a window of that many lines, so output buffers are updated
	// in place and stay L2-resident instead of streaming write-backs to
	// DRAM (reductions, histogram updates, in-place sweeps).
	StoreWindowLines int

	// PadCodeInsts appends this many filler ALU instructions to the body,
	// growing the code footprint past the L1I for fetch-hazard studies.
	PadCodeInsts int

	Seed uint64
}

const lineBytes = 128

// Region bases in line-index space (multiplied by lineBytes at the end).
// Keeping regions disjoint makes every pattern's reuse behaviour explicit.
const (
	hotRegionBase    = uint64(0)
	wsRegionBase     = uint64(1) << 21
	tileRegionBase   = uint64(1) << 23
	streamRegionBase = uint64(1) << 25
	storeRegionBase  = uint64(1) << 29
)

// memSlot describes a memory instruction's position among its kind; Build
// keeps one per body position, so the address generator indexes a slice.
type memSlot struct {
	isStore bool
	slot    int // 0-based among its kind
}

// Build compiles the spec into a runnable workload.
func (s Spec) Build() (*smcore.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	body := s.buildBody()
	slots := make([]memSlot, len(body))
	var loadIdx, storeIdx int
	for i, in := range body {
		switch in.Kind {
		case smcore.OpLoad:
			slots[i] = memSlot{slot: loadIdx}
			loadIdx++
		case smcore.OpStore:
			slots[i] = memSlot{isStore: true, slot: storeIdx}
			storeIdx++
		}
	}
	loads := s.LoadsPerIter
	prog := smcore.Program{Body: body, Iters: s.Iters, CodeBase: 1 << 40}

	wsLines := uint64(s.WorkingSetKB) * 1024 / lineBytes
	sharedLines := uint64(s.SharedKB) * 1024 / lineBytes
	tileLines := wsLines // per-core tile size for PatTiled
	lines := s.LinesPerAccess
	if lines < 1 {
		lines = 1
	}
	stride := uint64(s.StridePages)
	if stride == 0 {
		stride = defaultStridePages // Canonical mirrors this default
	}
	seed := s.Seed ^ 0x9e3779b97f4a7c15

	// Streams interleave warps at line granularity (warp w touches line
	// seq*W + w), the layout a coalesced row-major kernel produces: warps
	// executing the same instruction hit neighbouring lines, which is what
	// gives streaming workloads their DRAM row-buffer locality.
	warpStride := uint64(s.WarpsPerCore)
	if warpStride == 0 {
		warpStride = 64
	}

	addr := func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
		ms := slots[instIdx]
		if ms.isStore {
			// Stores stream through a warp-interleaved output region,
			// coalesced (one full line per store), optionally wrapping
			// within a small in-place window.
			base := storeRegionBase + uint64(coreID)<<22
			off := uint64(iter)*uint64(s.StoresPerIter) + uint64(ms.slot)
			if s.StoreWindowLines > 0 {
				off %= uint64(s.StoreWindowLines)
			}
			return append(buf, (base+off*warpStride+uint64(warpID))*lineBytes)
		}
		for k := 0; k < lines; k++ {
			h := mix(seed, uint64(coreID), uint64(warpID), uint64(iter), uint64(instIdx)+uint64(k)<<32)
			var lineIdx uint64
			// Every pattern may divert a SharedFrac fraction of its
			// accesses to the hot shared region (halo cells, lookup
			// tables, frontier bitmaps, ...), which is where inter-core
			// L2 locality comes from.
			if s.SharedFrac > 0 && float64(h>>40)/float64(1<<24) < s.SharedFrac {
				buf = appendUnique(buf, (hotRegionBase+h%max(sharedLines, 1))*lineBytes)
				continue
			}
			switch s.Pattern {
			case PatStream:
				seq := (uint64(iter)*uint64(loads)+uint64(ms.slot))*uint64(lines) + uint64(k)
				coreBase := streamRegionBase + uint64(coreID)<<22
				lineIdx = coreBase + seq*warpStride + uint64(warpID)
			case PatStrided:
				hh := mix(seed, uint64(coreID), uint64(warpID), uint64(iter), uint64(instIdx))
				lineIdx = wsRegionBase + (hh+uint64(k)*stride)%max(wsLines, 1)
			case PatRandomWS:
				lineIdx = wsRegionBase + h%max(wsLines, 1)
			case PatHotShared:
				lineIdx = wsRegionBase + h%max(wsLines, 1)
			case PatTiled:
				tileBase := tileRegionBase + uint64(coreID)*max(tileLines, 1)
				lineIdx = tileBase + h%max(tileLines, 1)
			}
			buf = appendUnique(buf, lineIdx*lineBytes)
		}
		return buf
	}

	return &smcore.Workload{
		Name:         s.Name,
		Program:      prog,
		Addr:         addr,
		WarpsPerCore: s.WarpsPerCore,
	}, nil
}

// MustBuild is Build for registry initialization; specs are static, so a
// failure is a programming error.
func (s Spec) MustBuild() *smcore.Workload {
	w, err := s.Build()
	if err != nil {
		panic(fmt.Sprintf("trace: bad spec %s: %v", s.Name, err))
	}
	return w
}

// ReadSpecFile loads one workload spec from a JSON file, or from stdin
// when path is "-" — the shared loader behind every CLI's -spec flag, so
// the tools can never drift in what spec files they accept. The spec is
// parsed, not validated; validation happens where the spec is used.
func ReadSpecFile(path string) (Spec, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	var spec Spec
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	return spec, nil
}

// maxBodyInsts bounds one loop iteration's instruction count (body plus
// code padding). The largest paper benchmark needs ~700 instructions for
// its L1I-thrashing study; the bound leaves two orders of magnitude of
// headroom while keeping a hostile inline spec from allocating an
// arbitrarily large program in the daemon.
const maxBodyInsts = 1 << 16

// Validate reports an error if the spec cannot produce a well-formed
// workload. Every Build goes through it, so servers accepting inline
// specs get the same detailed rejection a library caller sees.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("spec has no name")
	case s.Iters <= 0:
		return fmt.Errorf("%s: Iters must be positive", s.Name)
	case s.WarpsPerCore < 0:
		return fmt.Errorf("%s: WarpsPerCore must be non-negative (0 means the configuration's maximum)", s.Name)
	case s.LoadsPerIter < 0 || s.StoresPerIter < 0 || s.ALUPerIter < 0 || s.HeavyPerIter < 0:
		return fmt.Errorf("%s: negative instruction counts", s.Name)
	case s.LoadsPerIter+s.StoresPerIter+s.ALUPerIter+s.HeavyPerIter == 0:
		return fmt.Errorf("%s: empty body", s.Name)
	case s.LoadsPerIter > 24:
		return fmt.Errorf("%s: at most 24 loads per iteration (register budget)", s.Name)
	// Cap each count individually BEFORE summing: two near-MaxInt counts
	// would wrap the sum negative and sail under the aggregate cap.
	case s.StoresPerIter > maxBodyInsts || s.ALUPerIter > maxBodyInsts ||
		s.HeavyPerIter > maxBodyInsts || s.PadCodeInsts > maxBodyInsts:
		return fmt.Errorf("%s: body exceeds %d instructions per iteration", s.Name, maxBodyInsts)
	case s.LoadsPerIter+s.StoresPerIter+s.ALUPerIter+s.HeavyPerIter+max(s.PadCodeInsts, 0) > maxBodyInsts:
		return fmt.Errorf("%s: body exceeds %d instructions per iteration", s.Name, maxBodyInsts)
	case s.Pattern > PatTiled:
		return fmt.Errorf("%s: unknown pattern %d (known: stream, strided, random-ws, hot-shared, tiled)", s.Name, uint8(s.Pattern))
	case s.LinesPerAccess > 32:
		return fmt.Errorf("%s: at most 32 lines per access (one per thread of a warp)", s.Name)
	case s.LinesPerAccess < 0 || s.WorkingSetKB < 0 || s.SharedKB < 0 || s.StridePages < 0:
		return fmt.Errorf("%s: negative access geometry", s.Name)
	case (s.Pattern == PatRandomWS || s.Pattern == PatHotShared || s.Pattern == PatTiled || s.Pattern == PatStrided) && s.WorkingSetKB <= 0:
		return fmt.Errorf("%s: pattern %v needs WorkingSetKB", s.Name, s.Pattern)
	case s.Pattern == PatHotShared && s.SharedKB <= 0:
		return fmt.Errorf("%s: PatHotShared needs SharedKB", s.Name)
	case s.SharedFrac > 0 && s.SharedKB <= 0:
		return fmt.Errorf("%s: SharedFrac needs SharedKB", s.Name)
	case !(s.SharedFrac >= 0 && s.SharedFrac <= 1): // rejects NaN too
		return fmt.Errorf("%s: SharedFrac out of range", s.Name)
	}
	return nil
}

// buildBody lays out one loop iteration:
//
//	loads → independent ALU filler (DepDist) → consumers → heavy ops → stores
//
// Load destinations are r1..rL; consumers read them, so every load is
// eventually waited on (data-MEM hazards); DepDist controls how much
// independent work hides the latency.
func (s Spec) buildBody() []smcore.Inst {
	var body []smcore.Inst
	none := int8(-1)

	for l := 0; l < s.LoadsPerIter; l++ {
		body = append(body, smcore.Inst{Kind: smcore.OpLoad, Dest: int8(1 + l), Src1: none, Src2: none})
	}
	alusLeft := s.ALUPerIter
	// Independent filler between loads and consumers, clamped to
	// [0, ALUPerIter]: out-of-range DepDist spellings build the same
	// program as their clamped value (Canonical relies on this, and an
	// unclamped negative value would inflate alusLeft below).
	indep := s.DepDist
	if indep < 0 {
		indep = 0
	}
	if indep > alusLeft {
		indep = alusLeft
	}
	scratch := int8(40)
	for a := 0; a < indep; a++ {
		body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: scratch + int8(a%8), Src1: none, Src2: none})
	}
	alusLeft -= indep
	// Consumers: one per load while ALUs remain.
	consumed := 0
	for l := 0; l < s.LoadsPerIter && alusLeft > 0; l++ {
		body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: 30 + int8(l%8), Src1: int8(1 + l), Src2: none})
		alusLeft--
		consumed++
	}
	// Remaining light ALUs chain on each other.
	for a := 0; a < alusLeft; a++ {
		src := none
		if a > 0 {
			src = 50 + int8((a-1)%8)
		}
		body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: 50 + int8(a%8), Src1: src, Src2: none})
	}
	for h := 0; h < s.HeavyPerIter; h++ {
		src := none
		if consumed > 0 {
			src = 30 + int8(h%min(consumed, 8))
		}
		body = append(body, smcore.Inst{Kind: smcore.OpHeavyALU, Dest: 58 + int8(h%4), Src1: src, Src2: none})
	}
	for st := 0; st < s.StoresPerIter; st++ {
		src := int8(30)
		if consumed == 0 {
			src = none
		}
		body = append(body, smcore.Inst{Kind: smcore.OpStore, Dest: none, Src1: src, Src2: none})
	}
	for p := 0; p < s.PadCodeInsts; p++ {
		body = append(body, smcore.Inst{Kind: smcore.OpALU, Dest: 62, Src1: none, Src2: none})
	}
	return body
}

// mix is a splitmix64-style stateless hash of the access coordinates.
func mix(vs ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// appendUnique drops duplicate lines within one instruction (the hardware
// coalescer merges them).
func appendUnique(buf []uint64, addr uint64) []uint64 {
	for _, a := range buf {
		if a == addr {
			return buf
		}
	}
	return append(buf, addr)
}
