// Package fpga models the host side of the paper's infrastructure:
// the Micron HMC controller instantiated on the AC-510's Kintex
// UltraScale FPGA. It reproduces the transmit/receive pipeline whose
// latency the paper deconstructs in Figure 14 — FlitsToParallel,
// arbitration, sequence/flow-control/CRC insertion, SerDes conversion
// and serialization — plus the request flow-control "stop signal"
// that throttles GUPS ports when too many requests are outstanding.
package fpga

import (
	"fmt"

	"hmcsim/internal/sim"
)

// Params holds the FPGA-side pipeline constants. Cycle counts come
// directly from the paper's Figure 14 narration; throughput constants
// are calibrated (calibrated against the paper's Figure 14 budget).
type Params struct {
	// ClockHz is the FPGA fabric clock: 187.5 MHz on the AC-510.
	ClockHz float64

	// FlitsToParallelCycles is the TX buffering stage: "up to five
	// flits ... takes ten cycles or 53.3 ns".
	FlitsToParallelCycles int

	// ArbiterCycles is the round-robin port arbitration latency:
	// "between two to nine cycles"; we charge the typical value and
	// model contention separately through the node pipeline server.
	ArbiterCycles int

	// SeqFlowCRCCycles covers the Add-Seq#, request flow control and
	// Add-CRC units: "a latency of ten cycles".
	SeqFlowCRCCycles int

	// SerDesConvertCycles covers conversion to the SerDes protocol
	// and serialization setup: "around ten cycles".
	SerDesConvertCycles int

	// TxFlitsPerCycle is the steady-state flit throughput of one
	// hmc_node's TX pipeline (the 640-bit AXI-4 datapath moves
	// multiple flits per fabric cycle). It is the resource that caps
	// write-heavy traffic: 9-flit write requests at 2 flits/cycle
	// across 2 nodes yield the paper's ~13 GB/s wo bandwidth.
	TxFlitsPerCycle float64

	// RxFixedCycles is the receive-path fixed latency (deserialize,
	// verify CRC/sequence, route back); the paper reports ~260 ns
	// total RX for a 128 B response including drain.
	RxFixedCycles int

	// RxDrainFlitsPerCycle is the rate at which a port drains its
	// response flits from the controller.
	RxDrainFlitsPerCycle float64

	// TagPoolDepth is the read tag pool per GUPS port: 64.
	TagPoolDepth int

	// WriteFIFODepth bounds outstanding writes per port (the
	// Wr.Req.FIFO in Figure 4b).
	WriteFIFODepth int

	// Ports is the number of usable GUPS ports: the AC-510's two
	// links expose 10 TX ports of which one is reserved for system
	// use, leaving 9.
	Ports int
}

// DefaultParams returns the AC-510 controller configuration.
func DefaultParams() Params {
	return Params{
		ClockHz:               187.5e6,
		FlitsToParallelCycles: 10,
		ArbiterCycles:         3,
		SeqFlowCRCCycles:      10,
		SerDesConvertCycles:   10,
		TxFlitsPerCycle:       2,
		RxFixedCycles:         40,
		RxDrainFlitsPerCycle:  1,
		TagPoolDepth:          64,
		WriteFIFODepth:        64,
		Ports:                 9,
	}
}

// Validate sanity-checks the parameter set.
func (p Params) Validate() error {
	if p.ClockHz <= 0 {
		return fmt.Errorf("fpga: non-positive clock %v", p.ClockHz)
	}
	if p.TxFlitsPerCycle <= 0 || p.RxDrainFlitsPerCycle <= 0 {
		return fmt.Errorf("fpga: non-positive flit rates")
	}
	if p.TagPoolDepth <= 0 || p.Ports <= 0 {
		return fmt.Errorf("fpga: non-positive tag pool or port count")
	}
	return nil
}

// Cycle returns the fabric clock period.
func (p Params) Cycle() sim.Duration {
	return sim.Duration(float64(sim.Second) / p.ClockHz)
}

// Cycles returns the duration of n fabric cycles.
func (p Params) Cycles(n int) sim.Duration { return sim.Duration(n) * p.Cycle() }

// RxFixedLatency is the receive-path fixed latency.
func (p Params) RxFixedLatency() sim.Duration { return p.Cycles(p.RxFixedCycles) }

// TxPipeTime is the node TX pipeline occupancy of a packet of the
// given flit count.
func (p Params) TxPipeTime(flits int) sim.Duration {
	return sim.Duration(float64(flits) / p.TxFlitsPerCycle * float64(p.Cycle()))
}

// DrainTime is the port-side drain occupancy of a response of the
// given flit count.
func (p Params) DrainTime(flits int) sim.Duration {
	return sim.Duration(float64(flits) / p.RxDrainFlitsPerCycle * float64(p.Cycle()))
}

// Stage is one entry of the Figure 14 latency deconstruction.
type Stage struct {
	Path   string // "TX" or "RX"
	Name   string
	Cycles float64
	Time   sim.Duration
}

// TXStages returns the Figure 14 transmit-path deconstruction for a
// request of the given flit count.
func (p Params) TXStages(reqFlits int) []Stage {
	cyc := p.Cycle()
	mk := func(name string, cycles float64) Stage {
		return Stage{Path: "TX", Name: name, Cycles: cycles,
			Time: sim.Duration(cycles * float64(cyc))}
	}
	// The paper charges ~15 cycles to transmit a 128 B (9-flit)
	// request: 5/3 cycle per flit.
	txmit := float64(reqFlits) * 5 / 3
	return []Stage{
		mk("FlitsToParallel (buffer up to 5 flits)", float64(p.FlitsToParallelCycles)),
		mk("Port arbitration (round-robin)", float64(p.ArbiterCycles)),
		mk("Add-Seq# / Req. flow control / Add-CRC", float64(p.SeqFlowCRCCycles)),
		mk("Convert to SerDes protocol", float64(p.SerDesConvertCycles)),
		mk("Serialize + transmit on link", txmit),
	}
}

// RXStages returns the receive-path deconstruction for a response of
// the given flit count.
func (p Params) RXStages(respFlits int) []Stage {
	cyc := p.Cycle()
	mk := func(name string, cycles float64) Stage {
		return Stage{Path: "RX", Name: name, Cycles: cycles,
			Time: sim.Duration(cycles * float64(cyc))}
	}
	drain := float64(respFlits) / p.RxDrainFlitsPerCycle
	return []Stage{
		mk("Deserialize + verify (CRC, Seq#)", float64(p.RxFixedCycles)*0.6),
		mk("Route response to port", float64(p.RxFixedCycles)*0.4),
		mk("Port drain (flits to port)", drain),
	}
}
