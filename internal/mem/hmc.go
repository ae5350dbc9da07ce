package mem

import (
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

// HMC adapts the AC-510 stack (hmc.Device behind fpga.Controller) to
// the Backend interface. It is a zero-cost shim: Submit passes the
// request straight to the controller and converts the completion
// through a pooled adapter, adding no events and no allocations, so a
// workload driven through the interface is byte-identical to one
// driven against the controller directly.
type HMC struct {
	eng   *sim.Engine
	dev   *hmc.Device
	ctrl  *fpga.Controller
	ports []hmcPort
	calls Calls[fpga.Result]
}

type hmcPort struct {
	be *HMC
	id int
}

// NewHMC wraps an already-wired device + controller pair.
func NewHMC(eng *sim.Engine, dev *hmc.Device, ctrl *fpga.Controller) *HMC {
	be := &HMC{eng: eng, dev: dev, ctrl: ctrl}
	be.calls = NewCalls(func(c *Call[fpga.Result]) func(fpga.Result) {
		return func(r fpga.Result) {
			req, done := c.Release()
			done(Result{Req: req, Submit: r.AccessResult.Submit, Deliver: r.PortDeliver, Err: r.Err})
		}
	})
	be.ports = make([]hmcPort, ctrl.Params().Ports)
	for i := range be.ports {
		be.ports[i] = hmcPort{be: be, id: i}
	}
	return be
}

// Name reports "hmc".
func (b *HMC) Name() string { return "hmc" }

// Engine returns the backend's engine.
func (b *HMC) Engine() *sim.Engine { return b.eng }

// CapacityBytes is the cube's DRAM capacity.
func (b *HMC) CapacityBytes() uint64 { return b.dev.Geometry().SizeBytes }

// CapMask is the address map's capacity mask (capacities are powers
// of two, so the mask covers exactly the addressable space).
func (b *HMC) CapMask() uint64 { return b.dev.AddressMap().CapacityMask() }

// Limits reports the Verilog port depths: 64-deep tag pool, write
// FIFO, one issue per FPGA cycle.
func (b *HMC) Limits() Limits {
	p := b.ctrl.Params()
	return Limits{ReadDepth: p.TagPoolDepth, WriteDepth: p.WriteFIFODepth, IssueInterval: p.Cycle()}
}

// Port returns hardware port i (panics outside the controller's port
// range — callers validate against fpga.Params.Ports).
func (b *HMC) Port(i int) Port {
	if i < 0 || i >= len(b.ports) {
		panic(fmt.Sprintf("mem: hmc port %d outside 0..%d", i, len(b.ports)-1))
	}
	return &b.ports[i]
}

// WireBytes is the packet cost: header+tail both ways plus the
// payload on the data-carrying leg.
func (b *HMC) WireBytes(write bool, size int) int {
	if write {
		return hmc.TransactionBytes(hmc.CmdWrite, size)
	}
	return hmc.TransactionBytes(hmc.CmdRead, size)
}

// MinLatency is the cube's latency floor: wire flight both ways plus
// the fixed ingress/egress pipelines plus one closed-page bank cycle.
// Every access pays at least these stages (Figure 14's deconstruction
// deliberately under-counts here: serialization, SLID processing and
// queueing only add to it), so the bound is conservative for any
// request size, pattern or port count.
func (b *HMC) MinLatency() sim.Duration {
	p := b.dev.Params()
	return 2*p.LinkWireLatency + p.IngressLatency + p.EgressLatency + p.BankAccess
}

// Counters maps the device counters onto the unified snapshot.
func (b *HMC) Counters() Counters {
	c := b.dev.Counters()
	return Counters{
		Accesses:  c.Reads + c.Writes,
		Reads:     c.Reads,
		Writes:    c.Writes,
		DataBytes: c.DataBytes,
		WireBytes: c.WireBytes,
		Errors:    c.Rejected,
	}
}

// Submit hands the request to the controller on this port's identity.
func (p *hmcPort) Submit(req Request, done Done) {
	p.be.ctrl.Submit(hmc.Request{Addr: req.Addr, Size: req.Size, Write: req.Write, Port: p.id}, p.be.calls.Call(req, done))
}

// CanIssue consults the controller's per-bank stop signal.
func (p *hmcPort) CanIssue(addr uint64) bool { return p.be.ctrl.CanIssue(addr) }

// WaitIssue parks fn on the bank queue the controller tracks.
func (p *hmcPort) WaitIssue(addr uint64, fn func()) { p.be.ctrl.WaitBank(addr, fn) }
