package gups

import (
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// Config describes one GUPS experiment: a device + controller
// configuration, a request mix, and a measurement window.
type Config struct {
	// Generation selects the device; the zero value is the paper's
	// HMC11. Unknown generations are rejected by BuildRigPorts with an
	// error.
	Generation hmc.Generation
	// DevParams are the device timing parameters (default DefaultParams).
	DevParams *hmc.Params
	// FPGAParams are the controller parameters (default DefaultParams).
	FPGAParams *fpga.Params

	// Ports is the number of active ports: 9 for full-scale GUPS,
	// fewer for small-scale (Section III-B).
	Ports int
	// Type is the request mix: ro, wo, rw or Mixed.
	Type ReqType
	// ReadFraction is the read share for Type == Mixed (0..1).
	ReadFraction float64
	// Size is the request payload in bytes (16..128, default 128).
	Size int
	// Mode selects random or linear addressing.
	Mode Mode
	// ZeroMask/OneMask are the address mask/anti-mask registers.
	ZeroMask, OneMask uint64
	// PagePolicy overrides the row policy (default closed page).
	PagePolicy hmc.PagePolicy

	// Warmup and Measure bound the experiment: statistics cover
	// [Warmup, Warmup+Measure]. Defaults: 150 us + 1 ms.
	Warmup, Measure sim.Duration
	// Seed perturbs all port RNGs.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 128
	}
	if c.Ports == 0 {
		c.Ports = 9
	}
	if c.Warmup == 0 {
		c.Warmup = 150 * sim.Microsecond
	}
	if c.Measure == 0 {
		c.Measure = 1 * sim.Millisecond
	}
	return c
}

// Result aggregates a GUPS run.
type Result struct {
	Config Config

	Reads  uint64
	Writes uint64

	// RawGBps is wire bandwidth including header and tail of both
	// request and response — the quantity every bandwidth figure in
	// the paper reports.
	RawGBps float64
	// DataGBps is payload-only bandwidth.
	DataGBps float64
	// MRPS is million requests (reads+writes) per second, the line
	// series of Figure 8.
	MRPS float64
	// ReadMRPS / WriteMRPS split MRPS by direction.
	ReadMRPS, WriteMRPS float64

	// ReadHistNs / WriteHistNs are the merged per-port latency
	// records over the measurement window (warmup excluded): exact
	// mean/min/max and tail percentiles of the port-measured round
	// trips (a write's ends at its acknowledgement); nil when no
	// request of that direction completed.
	ReadHistNs  *stats.LogHist
	WriteHistNs *stats.LogHist
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%v %dB x%d: %.2f GB/s raw (%.2f data), %.1f MRPS, read lat avg %.0f ns [%.0f..%.0f]",
		r.Config.Type, r.Config.Size, r.Config.Ports, r.RawGBps, r.DataGBps, r.MRPS,
		r.ReadHistNs.Mean(), r.ReadHistNs.Min(), r.ReadHistNs.Max())
}

// Rig bundles a constructed simulation stack. Dev and Ctrl expose the
// concrete HMC models (storage, thermal hooks, direct submission);
// Backend is the same stack behind the unified mem interface, which
// the ports and the trace replayer drive.
type Rig struct {
	Eng     *sim.Engine
	Dev     *hmc.Device
	Ctrl    *fpga.Controller
	Backend *mem.HMC
	Ports   []*Port
}

// PortSeed derives port i's RNG seed from the experiment seed — the
// derivation every rig (full-scale GUPS and scenario tenants alike)
// uses, so a scenario that reduces to a GUPS config reproduces its
// numbers exactly.
func PortSeed(base uint64, i int) uint64 { return base*1000003 + uint64(i)*7919 }

// PortLinearStart staggers sequential ports across banks (bit 11) and
// rows (bit 21) so concurrent linear streams exercise bank-level
// parallelism instead of marching over one bank in lockstep.
func PortLinearStart(i int) uint64 { return uint64(i)*(1<<11) + uint64(i)*(1<<21) }

// BuildRig constructs the engine, device, controller and ports for a
// config without running anything (used by the runners and tests).
func BuildRig(cfg Config) (*Rig, error) {
	cfg = cfg.withDefaults()
	pcs := make([]PortConfig, cfg.Ports)
	for i := range pcs {
		pcs[i] = PortConfig{
			Type:         cfg.Type,
			Size:         cfg.Size,
			Mode:         cfg.Mode,
			ReadFraction: cfg.ReadFraction,
			ZeroMask:     cfg.ZeroMask,
			OneMask:      cfg.OneMask,
			Seed:         PortSeed(cfg.Seed, i),
			LinearStart:  PortLinearStart(i),
		}
	}
	return BuildRigPorts(cfg, pcs)
}

// BuildRigPorts constructs a rig with explicitly configured ports
// (the scenario engine's entry point: heterogeneous per-tenant port
// configs sharing one cube). cfg supplies the device/controller
// configuration; per-port traffic comes from pcs.
func BuildRigPorts(cfg Config, pcs []PortConfig) (*Rig, error) {
	return BuildRigPortsOn(sim.NewEngine(), cfg, pcs)
}

// BuildRigPortsOn is BuildRigPorts on a caller-supplied engine — the
// entry point for multi-board builds, where each board's rig lives on
// its own shard engine of a PDES mesh instead of a private one.
func BuildRigPortsOn(eng *sim.Engine, cfg Config, pcs []PortConfig) (*Rig, error) {
	if eng == nil {
		return nil, fmt.Errorf("gups: nil engine")
	}
	cfg = cfg.withDefaults()
	if !hmc.KnownGeneration(cfg.Generation) {
		return nil, fmt.Errorf("gups: unknown HMC generation %d", cfg.Generation)
	}
	for _, pc := range pcs {
		if !hmc.ValidPayload(pc.Size) {
			return nil, fmt.Errorf("gups: invalid request size %d", pc.Size)
		}
		if pc.Type == Mixed && (pc.ReadFraction < 0 || pc.ReadFraction > 1) {
			return nil, fmt.Errorf("gups: read fraction %v outside [0,1]", pc.ReadFraction)
		}
		gp := GenParams{
			Mode: pc.Mode, Size: pc.Size, ZipfTheta: pc.ZipfTheta,
			HotFraction: pc.HotFraction, HotRate: pc.HotRate,
			StrideBytes: pc.StrideBytes, JumpEvery: pc.JumpEvery,
		}
		if err := gp.Validate(); err != nil {
			return nil, err
		}
	}
	amap, err := hmc.NewAddressMap(hmc.Geometries(cfg.Generation), hmc.DefaultMaxBlock)
	if err != nil {
		return nil, err
	}
	dp := hmc.DefaultParams()
	if cfg.DevParams != nil {
		dp = *cfg.DevParams
	}
	fp := fpga.DefaultParams()
	if cfg.FPGAParams != nil {
		fp = *cfg.FPGAParams
	}
	if len(pcs) > fp.Ports {
		return nil, fmt.Errorf("gups: %d ports exceed the %d available", len(pcs), fp.Ports)
	}
	dev, err := hmc.NewDevice(eng, dp, amap)
	if err != nil {
		return nil, err
	}
	dev.SetPagePolicy(cfg.PagePolicy)
	ctrl, err := fpga.NewController(eng, dev, fp)
	if err != nil {
		return nil, err
	}
	rig := &Rig{Eng: eng, Dev: dev, Ctrl: ctrl, Backend: mem.NewHMC(eng, dev, ctrl)}
	for i, pc := range pcs {
		rig.Ports = append(rig.Ports, NewPort(i, rig.Backend, pc))
	}
	return rig, nil
}

// Run executes a full- or small-scale GUPS experiment and reports the
// measured bandwidth, request rate and latency statistics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	rig, err := BuildRig(cfg)
	if err != nil {
		return Result{}, err
	}
	for _, p := range rig.Ports {
		p.Start()
	}
	rig.Eng.RunUntil(cfg.Warmup)
	for _, p := range rig.Ports {
		p.ResetMonitor()
		p.SetMeasuring(true)
	}
	rig.Eng.RunUntil(cfg.Warmup + cfg.Measure)

	var mon Monitor
	for _, p := range rig.Ports {
		mon.Merge(p.mon)
		p.mon.Release()
	}
	rig.Eng.Release()
	secs := cfg.Measure.Seconds()
	res := Result{
		Config:      cfg,
		Reads:       mon.Reads,
		Writes:      mon.Writes,
		RawGBps:     float64(mon.RawBytes) / secs / 1e9,
		DataGBps:    float64(mon.DataBytes) / secs / 1e9,
		MRPS:        float64(mon.Reads+mon.Writes) / secs / 1e6,
		ReadMRPS:    float64(mon.Reads) / secs / 1e6,
		WriteMRPS:   float64(mon.Writes) / secs / 1e6,
		ReadHistNs:  mon.ReadHistNs,
		WriteHistNs: mon.WriteHistNs,
	}
	return res, nil
}

// MustRun is Run that panics on configuration errors (benchmarks).
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
