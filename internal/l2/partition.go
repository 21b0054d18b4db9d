package l2

import (
	"gpumembw/internal/config"
	"gpumembw/internal/dram"
	"gpumembw/internal/mem"
)

// Partition is one memory partition: the L2 banks sharing a crossbar node
// plus their GDDR5 channel. The GTX 480 has 6 partitions of 2 banks each.
type Partition struct {
	Banks []*Bank
	DRAM  *dram.Channel

	cfg    *config.Config
	respRR int // round-robin pointer for reply-network injection
	missRR int // round-robin pointer for DRAM injection
}

// NewPartition builds partition id with its banks and DRAM channel.
func NewPartition(id int, cfg *config.Config) *Partition {
	p := &Partition{
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

// SetFetchPool wires the GPU's fetch freelist into every bank and the DRAM
// channel of this partition. A nil pool is valid.
func (p *Partition) SetFetchPool(pool *mem.FetchPool) {
	for _, b := range p.Banks {
		b.SetFetchPool(pool)
	}
	p.DRAM.SetFetchPool(pool)
}

// TickL2 advances the partition one L2/interconnect cycle: deliver one DRAM
// fill, tick every bank, and drain the bank miss queues into the DRAM
// scheduler queue.
func (p *Partition) TickL2() {
	p.DeliverFill()
	for _, b := range p.Banks {
		b.Tick()
	}
	if b := p.NextMiss(); b != nil {
		p.ForwardMiss(b)
	}
}

// DeliverFill hands the DRAM return queue's head to its bank — one line
// per cycle, head-of-line — and returns that bank, or nil when no fill is
// waiting or its bank cannot take one this cycle (CanFill).
func (p *Partition) DeliverFill() *Bank {
	f, ok := p.DRAM.PeekResponse()
	if !ok {
		return nil
	}
	bank := p.Banks[f.BankID/p.cfg.DRAM.NumPartitions]
	if !bank.CanFill(f) {
		return nil
	}
	p.DRAM.PopResponse()
	bank.Fill(f)
	return bank
}

// NextMiss returns the bank whose miss-queue head goes to the DRAM
// scheduler queue this cycle — one request per cycle, round-robin across
// banks — or nil when no miss is ready or the scheduler queue is full (which
// leaves the miss queues backed up: bp-DRAM seen by the banks).
func (p *Partition) NextMiss() *Bank {
	n := len(p.Banks)
	for i := 0; i < n; i++ {
		b := p.Banks[(p.missRR+i)%n]
		if _, ok := b.PeekMiss(); ok {
			if p.DRAM.Full() {
				return nil
			}
			return b
		}
	}
	return nil
}

// ForwardMiss moves the miss NextMiss chose into the DRAM scheduler queue
// and advances the round-robin pointer past its bank.
func (p *Partition) ForwardMiss(b *Bank) {
	f, _ := b.PopMiss()
	p.DRAM.Push(f)
	p.missRR = (b.ID/p.cfg.DRAM.NumPartitions + 1) % len(p.Banks)
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
