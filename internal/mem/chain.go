package mem

import (
	"hmcsim/internal/chain"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

// Chain adapts a multi-cube chain.Network to the Backend interface.
// Accesses to failed cubes complete with Err set (the network's
// rerouting and severed-chain semantics pass through unchanged).
type Chain struct {
	eng   *sim.Engine
	nw    *chain.Network
	calls Calls[chain.Result]
}

type chainPort struct{ be *Chain }

// NewChain wraps an existing network.
func NewChain(eng *sim.Engine, nw *chain.Network) *Chain {
	return &Chain{eng: eng, nw: nw, calls: NewCalls(func(c *Call[chain.Result]) func(chain.Result) {
		return func(r chain.Result) {
			req, done := c.Release()
			done(Result{Req: req, Submit: r.Submit, Deliver: r.Deliver, Err: r.Err})
		}
	})}
}

// Name reports "chain".
func (b *Chain) Name() string { return "chain" }

// Engine returns the backend's engine.
func (b *Chain) Engine() *sim.Engine { return b.eng }

// Network exposes the underlying network (failure injection, decode).
func (b *Chain) Network() *chain.Network { return b.nw }

// CapacityBytes is the aggregate DRAM capacity across cubes.
func (b *Chain) CapacityBytes() uint64 { return b.nw.CapacityBytes() }

// CapMask covers the global space rounded up to a power of two;
// drivers reject or fold addresses beyond CapacityBytes for non-
// power-of-two cube counts.
func (b *Chain) CapMask() uint64 { return nextPow2(b.nw.CapacityBytes()) - 1 }

// Limits reports the host-side closed-loop window (64 per tenant
// port, trace replay's default) with no issue pacing.
func (b *Chain) Limits() Limits { return Limits{ReadDepth: 64, WriteDepth: 64} }

// Port returns an issue point; the host's links are shared, so the
// index only labels the caller.
func (b *Chain) Port(int) Port { return chainPort{be: b} }

// WireBytes is the packet cost, identical to a single cube's.
func (b *Chain) WireBytes(write bool, size int) int {
	if write {
		return hmc.TransactionBytes(hmc.CmdWrite, size)
	}
	return hmc.TransactionBytes(hmc.CmdRead, size)
}

// MinLatency is the network's latency floor: the single-cube bound
// (wire both ways, ingress/egress, one bank cycle) of the nearest
// cube. Farther cubes add pass-through hops and extra wire flights on
// top, so the nearest-cube bound is conservative for the whole chain.
func (b *Chain) MinLatency() sim.Duration {
	p := b.nw.Params().Device
	return 2*p.LinkWireLatency + p.IngressLatency + p.EgressLatency + p.BankAccess
}

// Counters sums the per-cube device counters.
func (b *Chain) Counters() Counters {
	var c Counters
	for i := 0; i < b.nw.Cubes(); i++ {
		dc := b.nw.Cube(i).Counters()
		c.Accesses += dc.Reads + dc.Writes
		c.Reads += dc.Reads
		c.Writes += dc.Writes
		c.DataBytes += dc.DataBytes
		c.WireBytes += dc.WireBytes
		c.Errors += dc.Rejected
	}
	return c
}

// Submit launches the access across the network at the current time.
func (p chainPort) Submit(req Request, done Done) {
	b := p.be
	b.nw.Access(b.eng.Now(), req.Addr, req.Size, req.Write, b.calls.Call(req, done))
}

// CanIssue always admits: flow control on a chain is the host's
// outstanding window, not a per-bank stop signal.
func (p chainPort) CanIssue(uint64) bool { return true }

// WaitIssue never parks; it runs fn immediately (see CanIssue).
func (p chainPort) WaitIssue(_ uint64, fn func()) { fn() }
