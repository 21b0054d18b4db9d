// Package smcore models one SIMT core (SM) of Fig. 2: warps with a
// greedy-then-oldest scheduler, a scoreboard, instruction buffers fed by an
// L1 instruction cache, an ALU pipeline, and a load-store unit in front of a
// write-evict L1 data cache with MSHRs and a miss queue.
//
// The core is trace-driven: warps execute a static kernel program whose
// memory instructions draw line addresses from a per-workload address
// generator. The core classifies every cycle in which it fails to issue an
// instruction into the taxonomy of Fig. 7 (data-MEM, data-ALU, str-MEM,
// str-ALU, fetch) and every cycle its L1 pipeline is blocked into the
// taxonomy of Fig. 9 (cache, mshr, bp-L2).
package smcore

// OpKind is the instruction class of the synthetic ISA. Four classes
// suffice to reproduce the paper's hazard taxonomy: light and heavy
// arithmetic (data-ALU/str-ALU hazards), loads (data-MEM) and stores.
type OpKind uint8

const (
	// OpALU is a fully pipelined arithmetic instruction.
	OpALU OpKind = iota
	// OpHeavyALU is a long-latency arithmetic instruction (transcendental
	// / double-precision class) with a multi-cycle initiation interval,
	// the source of str-ALU hazards.
	OpHeavyALU
	// OpLoad is a global-memory load.
	OpLoad
	// OpStore is a global-memory store.
	OpStore
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpALU:
		return "alu"
	case OpHeavyALU:
		return "heavy-alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	default:
		return "unknown"
	}
}

// NumRegs is the architectural register count per warp. 64 registers let
// the scoreboard live in two bitmasks.
const NumRegs = 64

// Inst is one static instruction. Register fields use -1 for "none".
type Inst struct {
	Kind OpKind
	Dest int8
	Src1 int8
	Src2 int8
}

// InstBytes is the encoded size of one instruction, which sets the
// instruction-cache footprint of a kernel body.
const InstBytes = 8

// Program is a static kernel: every warp executes Body Iters times.
type Program struct {
	Body     []Inst
	Iters    int
	CodeBase uint64 // base address of the code segment for L1I accesses
}

// TotalInsts returns the dynamic instruction count per warp.
func (p *Program) TotalInsts() int64 {
	return int64(len(p.Body)) * int64(p.Iters)
}

// PCAddr returns the instruction-fetch address of body position idx.
func (p *Program) PCAddr(idx int) uint64 {
	return p.CodeBase + uint64(idx)*InstBytes
}

// AddressFn yields the coalesced line addresses touched by the memory
// instruction at body position instIdx, executed by warp (coreID, warpID)
// in iteration iter. Implementations append to buf and return it; they must
// be deterministic in their arguments.
//
// The number of addresses one instruction generates must not exceed the
// configuration's memory pipeline width: the LSU issues an instruction only
// when all of its transactions fit, so an oversized burst would stall
// forever (the simulator reports it as a livelock).
type AddressFn func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64

// Workload couples a kernel program with its address generator and the
// number of warps launched per core.
type Workload struct {
	Name         string
	Program      Program
	Addr         AddressFn
	WarpsPerCore int // 0 means use the configuration's maximum
}
