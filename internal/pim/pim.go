// Package pim models processing-in-memory offload onto the HMC logic
// layer — the configuration the paper's thermal study is ultimately
// about ("in PIM configurations, a sustained operation can eventually
// lead to failure by exceeding the operational temperature",
// Section I). A kernel's memory references run either through the
// full host path (FPGA controller, SerDes links, quadrants) or
// vault-locally from compute elements in the logic layer. Both runs
// are trace.ReplayOn on the same cube model, so they issue the stream
// under one discipline and differ only in the port; the package
// reports the performance gap and the thermal price of moving compute
// into the stack.
package pim

import (
	"fmt"

	"hmcsim/internal/cooling"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/power"
	"hmcsim/internal/sim"
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

// Compare is the host-vs-PIM comparison of one kernel.
type Compare struct {
	Kernel string
	Host   trace.ReplayResult
	PIM    trace.ReplayResult
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

// localPort is a compute element in the cube's logic layer: its
// requests enter the vault controller through hmc.Device.SubmitLocal,
// skipping the SerDes links, quadrant routing and the host controller.
// Completions convert to mem.Result through a mem.Calls pool, like the
// mem adapters', so the port allocates nothing in steady state.
type localPort struct {
	eng   *sim.Engine
	dev   *hmc.Device
	calls mem.Calls[hmc.AccessResult]
}

// newLocalPort builds a compute element's port into dev's vaults.
func newLocalPort(eng *sim.Engine, dev *hmc.Device) *localPort {
	return &localPort{eng: eng, dev: dev, calls: mem.NewCalls(func(c *mem.Call[hmc.AccessResult]) func(hmc.AccessResult) {
		return func(r hmc.AccessResult) {
			req, done := c.Release()
			done(mem.Result{Req: req, Submit: r.Submit, Deliver: r.Deliver, Err: r.Err})
		}
	})}
}

// Submit hands the request straight to its vault at the current time.
func (p *localPort) Submit(req mem.Request, done mem.Done) {
	p.dev.SubmitLocal(p.eng.Now(), hmc.Request{Addr: req.Addr, Size: req.Size, Write: req.Write}, p.calls.Call(req, done))
}

// CanIssue always admits: the kernel's window is its only flow control.
func (*localPort) CanIssue(uint64) bool { return true }

// WaitIssue never parks; it runs fn immediately (see CanIssue).
func (*localPort) WaitIssue(_ uint64, fn func()) { fn() }

// runPIM replays the kernel vault-locally, through a localPort on an
// otherwise idle cube.
func runPIM(k Kernel) (trace.ReplayResult, error) {
	rig, err := gups.BuildRigPorts(gups.Config{}, nil)
	if err != nil {
		return trace.ReplayResult{}, err
	}
	defer rig.Eng.Release()
	return trace.ReplayOn(rig.Backend, newLocalPort(rig.Eng, rig.Dev), k.Gen(), trace.ReplayConfig{Window: k.Window})
}

// Offload runs the kernel both ways and assesses the PIM thermal
// price.
func Offload(k Kernel) (Compare, error) {
	if k.Gen == nil {
		return Compare{}, fmt.Errorf("pim: kernel without generator")
	}
	host, err := trace.Replay(k.Gen(), trace.ReplayConfig{Window: k.Window})
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
	act := power.Activity{RawGBps: pimRes.DataGBps, ReadMRPS: pimRes.DerefPerSec / 1e6}
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
