// Package mem is the unified memory-backend abstraction the paper's
// side-by-side methodology needs: one Backend/Port interface behind
// the HMC rig (device + AC-510 controller), the DDR4 channel model,
// and multi-cube HMC chains, so every driver — the GUPS issue loops,
// trace replay (trace.ReplayOn takes any Backend and a port into it),
// and the scenario compiler — targets the interface and runs
// unmodified on all three memory systems.
//
// The contract mirrors the event kernel's zero-allocation discipline:
// Submit stores the caller's completion callback (never wraps it in a
// fresh closure), and every adapter converts its native completion
// record to Result through a pooled, reusable adapter (a Calls); the
// decorators deliver their stretched and rejected completions through
// a sim.Deliverer. A caller that passes a reusable Done value keeps
// the whole submission path at 0 allocs/op in steady state, exactly
// like scheduling a sim.Handler.
//
// Adding a fourth backend is three steps: implement Backend/Port over
// the new model (pool the completion conversion in a Calls, as the
// three adapters do), give it a name in the scenario compiler's
// backend switch, and register whatever scn-* specs should exercise
// it. The drivers need no changes.
package mem

import "hmcsim/internal/sim"

// Request is one backend-agnostic memory transaction.
type Request struct {
	Addr  uint64
	Size  int  // payload bytes
	Write bool // write (payload with request) vs read
}

// Result is the unified completion record: the port-visible
// submission and delivery instants, and whether the backend rejected
// the access (failed cube, thermal shutdown).
type Result struct {
	Req     Request
	Submit  sim.Time
	Deliver sim.Time
	Err     bool
}

// Latency is the port-observed round trip.
func (r Result) Latency() sim.Duration { return r.Deliver - r.Submit }

// Done is the completion callback. Backends store it rather than
// wrapping it, so reusable func values keep submission allocation-free.
type Done func(Result)

// Calls is a free list of completion adapters. Each *Call carries one
// request's Request and Done across a native completion of type R; its
// callback is built once, by the wrap function given to NewCalls, and
// starts with Release, which puts the adapter back before the callback
// converts the result and calls the caller's Done. So a Done that
// resubmits reuses the adapter it completed on, and the list only ever
// holds the peak number of accesses in flight. Adapters point back at
// their Calls, so it must not be copied once Call has run.
type Calls[R any] struct {
	wrap func(*Call[R]) func(R)
	free *Call[R]
}

// Call is one pooled completion adapter of a Calls.
type Call[R any] struct {
	calls *Calls[R]
	req   Request
	done  Done
	fn    func(R)
	next  *Call[R]
}

// NewCalls returns an empty pool; wrap builds each new adapter's
// callback.
func NewCalls[R any](wrap func(c *Call[R]) func(R)) Calls[R] {
	return Calls[R]{wrap: wrap}
}

// Call borrows an adapter for (req, done) and returns its callback,
// which must run exactly once.
func (p *Calls[R]) Call(req Request, done Done) func(R) {
	c := p.free
	if c == nil {
		c = &Call[R]{calls: p}
		c.fn = p.wrap(c)
	} else {
		p.free = c.next
	}
	c.req, c.done = req, done
	return c.fn
}

// Release puts the adapter back on its pool and returns the request
// and Done it carried.
func (c *Call[R]) Release() (Request, Done) {
	req, done := c.req, c.done
	c.done = nil
	c.next = c.calls.free
	c.calls.free = c
	return req, done
}

// Limits are the per-port hardware depths a driver should respect.
// ReadDepth doubles as the default closed-loop outstanding window for
// window-based drivers.
type Limits struct {
	// ReadDepth bounds outstanding reads (HMC: the 64-deep tag pool;
	// DDR4: the per-channel scheduler queue).
	ReadDepth int
	// WriteDepth bounds outstanding writes (HMC: the write FIFO).
	WriteDepth int
	// IssueInterval is the hardware pacing between issue attempts
	// (HMC: one per FPGA cycle; 0 = no pacing).
	IssueInterval sim.Duration
}

// Counters is a snapshot of backend-side traffic totals.
type Counters struct {
	Accesses  uint64
	Reads     uint64
	Writes    uint64
	DataBytes uint64
	// WireBytes is the interconnect cost: packet header+tail+payload
	// for the packet-switched backends, data-bus occupancy for DDR.
	WireBytes uint64
	// Errors counts accesses the backend rejected.
	Errors uint64
}

// Port is one issue point into a backend. Ports are not safe for
// concurrent use (one engine, one goroutine — the kernel's rule).
type Port interface {
	// Submit issues req at the current engine time; done fires when
	// the response reaches the port.
	Submit(req Request, done Done)
	// CanIssue reports whether the backend's flow control would admit
	// a request to addr right now. Backends without admission control
	// always report true.
	CanIssue(addr uint64) bool
	// WaitIssue registers fn to run once admission to addr may have
	// become possible; fn re-checks CanIssue (waiters may race).
	WaitIssue(addr uint64, fn func())
}

// Backend is one memory system under one engine.
type Backend interface {
	// Name identifies the backend kind: "hmc", "ddr4" or "chain".
	Name() string
	// Engine returns the event engine the backend schedules on.
	Engine() *sim.Engine
	// CapacityBytes is the addressable size.
	CapacityBytes() uint64
	// CapMask is the power-of-two-minus-one generator mask covering
	// the address space; drivers reject or fold addresses beyond
	// CapacityBytes when the capacity is not a power of two.
	CapMask() uint64
	// Limits reports the per-port hardware depths.
	Limits() Limits
	// Port returns issue point i. The HMC backend has a fixed number
	// of hardware ports; the others accept any index.
	Port(i int) Port
	// WireBytes is the interconnect cost of one request+response pair,
	// the quantity raw-bandwidth figures report.
	WireBytes(write bool, size int) int
	// MinLatency is a conservative lower bound on the port-observed
	// round trip of ANY access the backend can serve: no completed
	// Result ever reports Latency() below it. It is the backend's
	// lookahead contract for the parallel shard kernel — the PDES
	// mesh uses it as the synchronization window, because no
	// cross-shard interaction can influence another shard sooner
	// than the fastest possible access. Derivations: hmc and chain
	// from the SerDes/link and bank-cycle floors, ddr4 from the
	// front-end + tCL + back-end minimum (see each implementation).
	MinLatency() sim.Duration
	// Counters snapshots backend-side traffic totals.
	Counters() Counters
}

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}
