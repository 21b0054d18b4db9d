// Package mem defines the memory-request currency exchanged between the
// levels of the simulated hierarchy (Fig. 2 of the paper): typed fetches,
// packet sizing for the flit-granularity crossbar, and the bounded FIFO
// queues whose occupancy and backpressure the paper characterizes.
package mem

import "fmt"

// AccessType classifies a memory fetch.
type AccessType uint8

const (
	// DataRead is a load miss travelling down the hierarchy.
	DataRead AccessType = iota
	// DataWrite is a store (write-evict at L1, write-back at L2).
	DataWrite
	// InstRead is an instruction-cache miss.
	InstRead
	// WriteBack is a dirty-line eviction from L2 to DRAM.
	WriteBack
)

// String implements fmt.Stringer.
func (t AccessType) String() string {
	switch t {
	case DataRead:
		return "data-read"
	case DataWrite:
		return "data-write"
	case InstRead:
		return "inst-read"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// NeedsReply reports whether the access produces a response packet on the
// reply network (reads do; stores and write-backs are fire-and-forget).
func (t AccessType) NeedsReply() bool {
	return t == DataRead || t == InstRead
}

// ControlBytes is the header size of every packet; a plain load request is
// just this header ("load requests ... amount to only 8 byte packets", §VII-B).
const ControlBytes = 8

// Fetch is one memory request (and, after service, its response) moving
// through the hierarchy. A Fetch is identified by ID and never copied:
// every level passes the same pointer along.
type Fetch struct {
	ID   uint64
	Type AccessType
	// L2Hit records whether the fetch was served by the L2 (for the
	// L2-AHL average-hit-latency metric) or travelled to DRAM.
	L2Hit bool

	Addr      uint64 // line-aligned address
	SizeBytes int    // payload size (0 for a plain read request)

	CoreID int // requesting SM (-1 for L2-generated write-backs)
	WarpID int
	BankID int // destination L2 bank (global index)

	// IssueCycle is the core cycle the fetch entered the memory system at
	// L1: the start of its AML and L2-AHL samples (Fig. 1).
	IssueCycle int64
}

// RequestBytes returns the size of the fetch as a request-network packet.
func (f *Fetch) RequestBytes() int {
	if f.Type == DataWrite || f.Type == WriteBack {
		return ControlBytes + f.SizeBytes
	}
	return ControlBytes
}

// ReplyBytes returns the size of the fetch as a reply-network packet
// (header plus the data it carries back).
func (f *Fetch) ReplyBytes() int {
	return ControlBytes + f.SizeBytes
}

// Flits returns the number of flits a packet of size bytes occupies on a
// network with the given flit size.
func Flits(bytes, flitBytes int) int {
	if flitBytes <= 0 {
		return 1
	}
	n := (bytes + flitBytes - 1) / flitBytes
	if n < 1 {
		n = 1
	}
	return n
}
