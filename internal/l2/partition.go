package l2

import (
	"gpumembw/internal/config"
	"gpumembw/internal/dram"
	"gpumembw/internal/mem"
)

// Partition is one memory partition: the L2 banks sharing a crossbar node
// plus their GDDR5 channel. The GTX 480 has 6 partitions of 2 banks each.
type Partition struct {
	ID    int
	Banks []*Bank
	DRAM  *dram.Channel

	cfg    *config.Config
	respRR int // round-robin pointer for reply-network injection
	missRR int // round-robin pointer for DRAM injection
}

// NewPartition builds partition id with its banks and DRAM channel.
func NewPartition(id int, cfg *config.Config) *Partition {
	p := &Partition{
		ID:   id,
		DRAM: dram.NewChannel(id, cfg),
		cfg:  cfg,
	}
	perPart := cfg.BanksPerPartition()
	for local := 0; local < perPart; local++ {
		globalID := local*cfg.DRAM.NumPartitions + id
		p.Banks = append(p.Banks, NewBank(globalID, cfg))
	}
	return p
}

// BankFor returns the bank owning the given global bank index.
func (p *Partition) BankFor(globalBank int) *Bank {
	return p.Banks[globalBank/p.cfg.DRAM.NumPartitions]
}

// SetFetchPool wires the GPU's fetch freelist into every bank and the DRAM
// channel of this partition. A nil pool is valid.
func (p *Partition) SetFetchPool(pool *mem.FetchPool) {
	for _, b := range p.Banks {
		b.SetFetchPool(pool)
	}
	p.DRAM.SetFetchPool(pool)
}

// tickIdle reports whether this TickL2 call has no work at all: no DRAM
// fill ready, and every bank with an empty access queue, no fill replies
// draining and no misses to forward. Response queues are irrelevant here —
// the reply-network hand-off happens outside TickL2 and only reads clocks.
func (p *Partition) tickIdle() bool {
	if _, ok := p.DRAM.PeekResponse(); ok {
		return false
	}
	for _, b := range p.Banks {
		if b.accessQ.Len() != 0 || len(b.fillPending) != 0 || b.missQ.Len() != 0 {
			return false
		}
	}
	return true
}

// TickL2 advances the partition one L2/interconnect cycle: deliver one DRAM
// fill, tick every bank, and drain the bank miss queues into the DRAM
// scheduler queue.
func (p *Partition) TickL2() {
	if p.tickIdle() {
		// Keep the bank clocks in lockstep; everything else below would
		// be a no-op this cycle.
		for _, b := range p.Banks {
			b.now++
		}
		return
	}

	// DRAM fill delivery: one line per cycle, head-of-line.
	if f, ok := p.DRAM.PeekResponse(); ok {
		bank := p.BankFor(f.BankID)
		if bank.CanFill(f) {
			p.DRAM.PopResponse()
			bank.Fill(f)
		}
	}

	for _, b := range p.Banks {
		b.Tick()
	}

	// Miss-queue → DRAM scheduler queue, one request per cycle,
	// round-robin across banks. A full scheduler queue leaves the miss
	// queues backed up (bp-DRAM seen by the banks).
	n := len(p.Banks)
	for i := 0; i < n; i++ {
		b := p.Banks[(p.missRR+i)%n]
		if f, ok := b.PeekMiss(); ok {
			if p.DRAM.Full() {
				break
			}
			b.PopMiss()
			p.DRAM.Push(f)
			p.missRR = (p.missRR + i + 1) % n
			break
		}
	}
}

// NextResponse returns (without consuming) the next reply packet to inject
// into the reply crossbar, round-robin across banks.
func (p *Partition) NextResponse() (*mem.Fetch, *Bank, bool) {
	n := len(p.Banks)
	for i := 0; i < n; i++ {
		b := p.Banks[(p.respRR+i)%n]
		if f, ok := b.PeekResponse(); ok {
			return f, b, true
		}
	}
	return nil, nil, false
}

// ConsumeResponse removes the reply previously returned by NextResponse
// and advances the round-robin pointer past its bank.
func (p *Partition) ConsumeResponse(b *Bank) {
	if _, ok := b.PopResponse(); !ok {
		panic("l2: ConsumeResponse with no ready response")
	}
	n := len(p.Banks)
	for i := 0; i < n; i++ {
		if p.Banks[(p.respRR+i)%n] == b {
			p.respRR = (p.respRR + i + 1) % n
			return
		}
	}
}

// SkipTicks advances every bank clock by n L2 cycles without doing any
// work. Valid only while the partition is Idle(): the event engine's
// deferred idle ticks guarantee every skipped TickL2 would have been a
// no-op.
// The DRAM channel runs in its own clock domain and is skipped separately.
func (p *Partition) SkipTicks(n int64) {
	for _, b := range p.Banks {
		b.now += n
	}
}

// HasL2Work is the wake answer of the partition's 700 MHz half — the L2
// banks and their network hand-offs — and it is a boolean: true while any
// bank queue holds work or a DRAM fill waits for delivery (every such
// cycle does real work or records stall attribution), false otherwise,
// when only an external input — a request ejection or a completed DRAM
// burst — can give it something to do. The DRAM channel answers for
// itself (Channel.Idle): it ticks on a different clock.
func (p *Partition) HasL2Work() bool {
	if _, ok := p.DRAM.PeekResponse(); ok {
		return true
	}
	for _, b := range p.Banks {
		if b.accessQ.Len() != 0 || len(b.fillPending) != 0 ||
			b.missQ.Len() != 0 || b.respQ.Len() != 0 {
			return true
		}
	}
	return false
}

// Idle reports whether the partition holds no work in any queue, MSHR or
// DRAM structure — used by drain checks.
func (p *Partition) Idle() bool {
	for _, b := range p.Banks {
		if b.accessQ.Len() > 0 || b.missQ.Len() > 0 || b.respQ.Len() > 0 ||
			b.mshr.Len() > 0 || len(b.fillPending) > 0 {
			return false
		}
	}
	return p.DRAM.Idle()
}
