package trace

import (
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// ReplayConfig drives a trace through the simulated stack.
type ReplayConfig struct {
	// Window is the maximum number of independent accesses in flight
	// (an out-of-order core's MSHR budget). Dependent accesses always
	// serialize regardless. Default 64.
	Window int
}

// ReplayResult summarizes a replayed trace.
type ReplayResult struct {
	Accesses  uint64
	Elapsed   sim.Duration
	DataGBps  float64
	RawGBps   float64
	LatencyNs stats.LogHist
	// DerefPerSec is Accesses/Elapsed — the figure of merit for
	// dependent chains.
	DerefPerSec float64
}

// String renders a one-line summary.
func (r ReplayResult) String() string {
	return fmt.Sprintf("%d accesses in %v: %.2f GB/s data (%.2f raw), %.2fM refs/s, lat avg %.0f ns",
		r.Accesses, r.Elapsed, r.DataGBps, r.RawGBps, r.DerefPerSec/1e6, r.LatencyNs.Mean())
}

// Replay runs the trace to completion through a host core's path into
// one cube (controller, SerDes links, device) and reports throughput
// and latency.
func Replay(gen Generator, cfg ReplayConfig) (ReplayResult, error) {
	// Replay models a host core's memory interface rather than one
	// Verilog GUPS port, so responses drain at 4 flits/cycle (the GUPS
	// port's 1 flit/cycle would cap any single stream at ~21 M refs/s).
	fp := fpga.DefaultParams()
	fp.RxDrainFlitsPerCycle = 4
	rig, err := gups.BuildRigPorts(gups.Config{FPGAParams: &fp}, nil)
	if err != nil {
		return ReplayResult{}, err
	}
	defer rig.Eng.Release()
	return ReplayOn(rig.Backend, rig.Backend.Port(0), gen, cfg)
}

// ReplayOn runs the trace to completion through port, an issue point
// into be's memory (one of be's ports, or a decorator around one),
// and reports throughput and latency. Independent accesses pipeline
// up to Window deep; dependent accesses wait for the previous response
// (pointer chase). The stream must end: a generator bounds itself by
// its Count or its own stop rule. ReplayOn drains be's engine and
// measures from time zero, so be should be fresh; the caller keeps
// ownership of its engine.
func ReplayOn(be mem.Backend, port mem.Port, gen Generator, cfg ReplayConfig) (ReplayResult, error) {
	if gen == nil {
		return ReplayResult{}, fmt.Errorf("trace: nil generator")
	}
	window := cfg.Window
	if window <= 0 {
		window = 64
	}
	eng := be.Engine()
	capMask := be.CapMask()

	var res ReplayResult
	inFlight := 0
	exhausted := false
	blockedOnDep := false
	var pending *Access // next access waiting for admission/window

	// The completion callback is built once and reused for every
	// access: mem.Result carries the submit time, and a dependent
	// access is by construction the only one in flight, so the
	// callback needs no per-access captures.
	var pump func()
	onDone := func(r mem.Result) {
		inFlight--
		res.LatencyNs.Record(int64(r.Latency()))
		blockedOnDep = false
		pump()
	}
	issue := func(a Access) {
		inFlight++
		res.Accesses++
		if a.Dependent {
			blockedOnDep = true
		}
		port.Submit(mem.Request{Addr: a.Addr & capMask, Size: a.Size, Write: a.Write}, onDone)
	}
	pump = func() {
		for {
			if blockedOnDep || inFlight >= window || exhausted {
				return
			}
			if pending == nil {
				a, ok := gen.Next()
				if !ok {
					exhausted = true
					return
				}
				if !hmc.ValidPayload(a.Size) {
					a.Size = 64
				}
				pending = &a
			}
			a := *pending
			// A dependent access must wait until the pipe is empty.
			if a.Dependent && inFlight > 0 {
				return
			}
			pending = nil
			if !port.CanIssue(a.Addr & capMask) {
				pending = &a
				port.WaitIssue(a.Addr&capMask, pump)
				return
			}
			issue(a)
			if a.Dependent {
				return
			}
		}
	}
	eng.Schedule(0, pump)
	eng.Run()

	if inFlight != 0 || (!exhausted && pending != nil) {
		return ReplayResult{}, fmt.Errorf("trace: replay stalled with %d in flight", inFlight)
	}
	res.Elapsed = eng.Now()
	c := be.Counters()
	secs := res.Elapsed.Seconds()
	if secs > 0 {
		res.DataGBps = float64(c.DataBytes) / secs / 1e9
		res.RawGBps = float64(c.WireBytes) / secs / 1e9
		res.DerefPerSec = float64(res.Accesses) / secs
	}
	return res, nil
}
