// Package pim models processing-in-memory offload onto the HMC logic
// layer — the configuration the paper's thermal study is ultimately
// about ("in PIM configurations, a sustained operation can eventually
// lead to failure by exceeding the operational temperature",
// Section I). A kernel's memory references run either through the
// full host path (FPGA controller, SerDes links, quadrants) or
// vault-locally from compute elements in the logic layer; the package
// reports the performance gap and the thermal price of moving compute
// into the stack.
package pim

import (
	"fmt"

	"hmcsim/internal/cooling"
	"hmcsim/internal/hmc"
	"hmcsim/internal/power"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
	"hmcsim/internal/thermal"
	"hmcsim/internal/trace"
)

// Kernel describes an offload candidate as a memory-access stream.
type Kernel struct {
	// Name labels reports.
	Name string
	// Gen yields the access stream; it is consumed once per run, so
	// callers pass a constructor.
	Gen func() trace.Generator
	// Window is the in-flight budget for independent accesses.
	Window int
}

// VaultProcessorW is the logic-layer power of one active vault
// processor; 16 active vault processors at this budget land in the
// range die-stacked PIM studies (Eckert et al., Zhu et al.) consider
// thermally feasible per stack.
const VaultProcessorW = 0.35

// ProximityFactor scales the thermal resistance seen by PIM compute
// power: heat deposited in the logic layer couples to the DRAM stack
// more tightly than the same watts dissipated on the board ("the peak
// temperature increases exponentially with the proximity of the
// compute unit", Section IV-C).
const ProximityFactor = 1.5

// RunResult is the outcome of one execution mode.
type RunResult struct {
	Elapsed   sim.Duration
	Accesses  uint64
	DataGBps  float64
	LatencyNs stats.LogHist
}

// Compare is the host-vs-PIM comparison of one kernel.
type Compare struct {
	Kernel string
	Host   RunResult
	PIM    RunResult
	// Speedup is host time / PIM time.
	Speedup float64
	// PIMPowerW is the extra in-stack power while offloaded.
	PIMPowerW float64
	// SurfaceC[config] is the steady surface temperature while the
	// PIM kernel runs under each cooling configuration.
	SurfaceC map[string]float64
	// FailsAt lists cooling configurations that cannot hold the PIM
	// kernel below the write-significant thermal bound.
	FailsAt []string
}

// runHost replays the kernel through the full host path.
func runHost(k Kernel) (RunResult, error) {
	res, err := trace.Replay(k.Gen(), trace.ReplayConfig{Window: k.Window})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Elapsed:   res.Elapsed,
		Accesses:  res.Accesses,
		DataGBps:  res.DataGBps,
		LatencyNs: res.LatencyNs,
	}, nil
}

// runPIM replays the kernel vault-locally.
func runPIM(k Kernel) (RunResult, error) {
	eng := sim.NewEngine()
	defer eng.Release()
	amap := hmc.MustAddressMap(hmc.Geometries(hmc.HMC11), hmc.DefaultMaxBlock)
	dev, err := hmc.NewDevice(eng, hmc.DefaultParams(), amap)
	if err != nil {
		return RunResult{}, err
	}
	capMask := amap.CapacityMask()
	window := k.Window
	if window <= 0 {
		window = 64
	}
	gen := k.Gen()
	var out RunResult
	inFlight := 0
	blocked := false
	exhausted := false
	// pump and onDone are each built once; AccessResult carries the
	// submit time, so completions capture no per-access state.
	var pump func()
	var onDone func(hmc.AccessResult)
	onDone = func(r hmc.AccessResult) {
		inFlight--
		out.LatencyNs.Record(int64(r.Deliver - r.Submit))
		blocked = false
		// Issue from a new event, after every completion due at this
		// instant has been delivered.
		eng.Schedule(0, pump)
	}
	pump = func() {
		for !blocked && inFlight < window && !exhausted {
			a, ok := gen.Next()
			if !ok {
				exhausted = true
				return
			}
			if !hmc.ValidPayload(a.Size) {
				a.Size = 64
			}
			if a.Dependent && inFlight > 0 {
				// Re-queue by wrapping: simplest is to wait; dependent
				// streams in this model always arrive with inFlight==0
				// because the previous pump stopped after issuing one.
				blocked = true
				return
			}
			inFlight++
			out.Accesses++
			dep := a.Dependent
			dev.SubmitLocal(eng.Now(), hmc.Request{Addr: a.Addr & capMask, Size: a.Size, Write: a.Write}, onDone)
			if dep {
				blocked = true
				return
			}
		}
	}
	eng.Schedule(0, pump)
	eng.Run()
	out.Elapsed = eng.Now()
	if s := out.Elapsed.Seconds(); s > 0 {
		out.DataGBps = float64(dev.Counters().DataBytes) / s / 1e9
	}
	return out, nil
}

// Offload runs the kernel both ways and assesses the PIM thermal
// price.
func Offload(k Kernel) (Compare, error) {
	if k.Gen == nil {
		return Compare{}, fmt.Errorf("pim: kernel without generator")
	}
	host, err := runHost(k)
	if err != nil {
		return Compare{}, err
	}
	pimRes, err := runPIM(k)
	if err != nil {
		return Compare{}, err
	}
	c := Compare{
		Kernel:   k.Name,
		Host:     host,
		PIM:      pimRes,
		SurfaceC: map[string]float64{},
	}
	if pimRes.Elapsed > 0 {
		c.Speedup = float64(host.Elapsed) / float64(pimRes.Elapsed)
	}

	// Thermal assessment: all 16 vault processors active plus the
	// DRAM activity, deposited in-stack with the proximity factor.
	tm := thermal.DefaultModel()
	pm := power.DefaultModel()
	mrps := 0.0
	if s := pimRes.Elapsed.Seconds(); s > 0 {
		mrps = float64(pimRes.Accesses) / s / 1e6
	}
	act := power.Activity{RawGBps: pimRes.DataGBps, ReadMRPS: mrps}
	c.PIMPowerW = 16*VaultProcessorW + pm.DeviceDynamicW(act)
	for _, cfg := range cooling.Configs() {
		idle := tm.IdleSurfaceC(cfg)
		mult := (cfg.SharedResistanceKPerW + tm.LocalRKPerW) * ProximityFactor
		temp := idle + mult*c.PIMPowerW
		c.SurfaceC[cfg.Name] = temp
		// PIM kernels write results in place: hold them to the
		// write-significant bound.
		if tm.Exceeds(temp, true) {
			c.FailsAt = append(c.FailsAt, cfg.Name)
		}
	}
	return c, nil
}
