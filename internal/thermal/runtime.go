package thermal

import (
	"fmt"
	"math"

	"hmcsim/internal/cooling"
	"hmcsim/internal/mem"
	"hmcsim/internal/power"
	"hmcsim/internal/sim"
)

// RuntimeConfig parameterizes the closed thermal/power feedback loop.
type RuntimeConfig struct {
	// Cooling is the Table III environment being simulated.
	Cooling cooling.Config
	// Model / Power are the lumped-RC and electrical models.
	Model Model
	Power power.Model
	// SampleInterval is the sim time between temperature updates.
	SampleInterval sim.Duration
	// TauSim is the thermal time constant expressed in sim time. The
	// real module settles over ~200 s — invisible inside a
	// microsecond-scale simulation window — so the RC dynamics are
	// compressed: the same trajectory, traversed fast enough that
	// heating, throttling and recovery all happen inside the measured
	// window. Reported temperatures are real; only the clock that
	// advances them is accelerated.
	TauSim sim.Duration
	// DerateC is the surface temperature at which throttling begins;
	// each further StepC degrees adds one throttle level, up to
	// MaxLevel. ShutdownC rejects accesses outright (the paper's
	// thermal shutdown). HystC is the recovery hysteresis: a level (or
	// shutdown) is only released once temperature falls HystC below
	// the threshold that set it, so the controller does not chatter
	// at a boundary.
	DerateC   float64
	StepC     float64
	MaxLevel  int
	ShutdownC float64
	HystC     float64
	// ZoneResistanceScale optionally scales the shared thermal
	// resistance per zone (cooling shadow: downstream cubes of a
	// chain sit in the upstream cubes' exhaust). Empty means 1.0
	// everywhere; otherwise it must have one entry per zone.
	ZoneResistanceScale []float64
}

// DefaultRuntimeConfig returns the calibrated feedback-loop settings
// for a cooling environment.
func DefaultRuntimeConfig(c cooling.Config) RuntimeConfig {
	return RuntimeConfig{
		Cooling:        c,
		Model:          DefaultModel(),
		Power:          power.DefaultModel(),
		SampleInterval: 500 * sim.Nanosecond,
		TauSim:         20 * sim.Microsecond,
		DerateC:        75,
		StepC:          2,
		MaxLevel:       8,
		ShutdownC:      85,
		HystC:          1,
	}
}

// zoneRuntime is one thermal zone's live state.
type zoneRuntime struct {
	cfg     cooling.Config // resistance-scaled cooling environment
	tempC   float64
	level   int
	down    bool
	runaway bool
	prev    mem.Counters
	// telemetry
	maxC           float64
	levelUps       uint64
	shutdowns      uint64
	throttledTicks uint64
	downTicks      uint64
	samples        uint64
}

// Runtime advances per-zone lumped-RC surface temperatures from live
// backend counter deltas and drives a mem.Throttle in response. It is
// itself the periodic sim.Handler — Fire samples, integrates, runs
// the hysteretic controller and reschedules, allocating nothing after
// construction.
type Runtime struct {
	eng      *sim.Engine
	throttle *mem.Throttle
	cfg      RuntimeConfig
	// counters snapshots zone z's traffic totals (the scenario wiring
	// supplies a per-cube view for chains, the backend totals
	// otherwise).
	counters func(z int) mem.Counters
	zones    []zoneRuntime
	alpha    float64 // 1 - exp(-interval/tau), the per-sample RC gain
	perSec   float64 // samples per sim second, for counter-delta rates
	horizon  sim.Time
	running  bool
}

// NewRuntime builds the feedback loop for a throttled backend.
// counters may be nil when the throttle has one zone (the backend's
// own totals are used).
func NewRuntime(th *mem.Throttle, cfg RuntimeConfig, counters func(z int) mem.Counters) (*Runtime, error) {
	if th == nil {
		return nil, fmt.Errorf("thermal: runtime needs a throttle")
	}
	if cfg.SampleInterval <= 0 || cfg.TauSim <= 0 {
		return nil, fmt.Errorf("thermal: sample interval and tau must be positive")
	}
	if cfg.StepC <= 0 || cfg.MaxLevel < 1 {
		return nil, fmt.Errorf("thermal: derate step and max level must be positive")
	}
	if cfg.ShutdownC < cfg.DerateC {
		return nil, fmt.Errorf("thermal: shutdown threshold %.1fC below derate threshold %.1fC",
			cfg.ShutdownC, cfg.DerateC)
	}
	n := th.Zones()
	if len(cfg.ZoneResistanceScale) != 0 && len(cfg.ZoneResistanceScale) != n {
		return nil, fmt.Errorf("thermal: %d zone resistance scales for %d zones",
			len(cfg.ZoneResistanceScale), n)
	}
	if counters == nil {
		if n != 1 {
			return nil, fmt.Errorf("thermal: %d zones need a per-zone counter source", n)
		}
		counters = func(int) mem.Counters { return th.Counters() }
	}
	r := &Runtime{
		eng:      th.Engine(),
		throttle: th,
		cfg:      cfg,
		counters: counters,
		zones:    make([]zoneRuntime, n),
		alpha:    1 - math.Exp(-float64(cfg.SampleInterval)/float64(cfg.TauSim)),
		perSec:   float64(sim.Second) / float64(cfg.SampleInterval),
	}
	for z := range r.zones {
		zc := cfg.Cooling
		if len(cfg.ZoneResistanceScale) != 0 {
			zc.SharedResistanceKPerW *= cfg.ZoneResistanceScale[z]
		}
		idle := cfg.Model.IdleSurfaceC(zc)
		r.zones[z] = zoneRuntime{cfg: zc, tempC: idle, maxC: idle}
	}
	return r, nil
}

// Start schedules the periodic sampling up to (and including) the
// horizon; Fire stops rescheduling once the next sample would land
// past it, so a RunUntil at the same deadline drains cleanly.
func (r *Runtime) Start(horizon sim.Time) {
	if r.running {
		panic("thermal: runtime started twice")
	}
	r.running = true
	r.horizon = horizon
	r.eng.ScheduleHandler(r.cfg.SampleInterval, r)
}

// Fire is the periodic thermal event: per zone it converts the
// counter delta since the last sample into an Activity, solves the
// steady-state target (leakage fixed point included), advances the RC
// state one step toward it, and runs the hysteretic throttle
// controller.
func (r *Runtime) Fire(e *sim.Engine) {
	m, pm := r.cfg.Model, r.cfg.Power
	for z := range r.zones {
		st := &r.zones[z]
		cur := r.counters(z)
		d := delta(cur, st.prev)
		st.prev = cur

		act := power.Activity{
			RawGBps:   float64(d.WireBytes) * r.perSec / 1e9,
			ReadMRPS:  float64(d.Reads) * r.perSec / 1e6,
			WriteMRPS: float64(d.Writes) * r.perSec / 1e6,
			PureWrite: d.Reads == 0 && d.Writes > 0,
		}
		target, ok := m.SteadySurface(st.cfg, pm, act)
		if !ok {
			st.runaway = true
		}
		st.tempC += (target - st.tempC) * r.alpha
		if st.tempC > st.maxC {
			st.maxC = st.tempC
		}
		st.samples++

		// Hysteretic controller: at most one level change per sample.
		switch {
		case !st.down && st.tempC >= r.cfg.ShutdownC:
			st.down = true
			st.shutdowns++
			r.throttle.SetShutdown(z, true)
		case st.down && st.tempC <= r.cfg.ShutdownC-r.cfg.HystC:
			st.down = false
			r.throttle.SetShutdown(z, false)
		}
		switch {
		case st.level < r.cfg.MaxLevel && st.tempC >= r.cfg.DerateC+float64(st.level)*r.cfg.StepC:
			st.level++
			st.levelUps++
			r.throttle.SetLevel(z, st.level)
		case st.level > 0 && st.tempC < r.cfg.DerateC+float64(st.level-1)*r.cfg.StepC-r.cfg.HystC:
			st.level--
			r.throttle.SetLevel(z, st.level)
		}
		if st.level > 0 {
			st.throttledTicks++
		}
		if st.down {
			st.downTicks++
		}
	}
	if e.Now()+r.cfg.SampleInterval <= r.horizon {
		e.ScheduleHandler(r.cfg.SampleInterval, r)
	} else {
		r.running = false
	}
}

func delta(cur, prev mem.Counters) mem.Counters {
	return mem.Counters{
		Accesses:  cur.Accesses - prev.Accesses,
		Reads:     cur.Reads - prev.Reads,
		Writes:    cur.Writes - prev.Writes,
		DataBytes: cur.DataBytes - prev.DataBytes,
		WireBytes: cur.WireBytes - prev.WireBytes,
		Errors:    cur.Errors - prev.Errors,
	}
}

// ZoneStats is one zone's feedback-loop telemetry.
type ZoneStats struct {
	// FinalC / MaxC are the last and hottest sampled surface
	// temperatures.
	FinalC float64
	MaxC   float64
	// Level and Shutdown are the controller's final state.
	Level    int
	Shutdown bool
	// LevelUps counts derate escalations; Shutdowns counts shutdown
	// entries; Runaway reports a diverging leakage fixed point at any
	// sample.
	LevelUps  uint64
	Shutdowns uint64
	Runaway   bool
	// ThrottledFrac / ShutdownFrac are the fraction of samples spent
	// derated / shut down.
	ThrottledFrac float64
	ShutdownFrac  float64
}

// Zones reports the zone count.
func (r *Runtime) Zones() int { return len(r.zones) }

// ZoneStats returns zone z's telemetry.
func (r *Runtime) ZoneStats(z int) ZoneStats {
	st := &r.zones[z]
	s := ZoneStats{
		FinalC:    st.tempC,
		MaxC:      st.maxC,
		Level:     st.level,
		Shutdown:  st.down,
		LevelUps:  st.levelUps,
		Shutdowns: st.shutdowns,
		Runaway:   st.runaway,
	}
	if st.samples > 0 {
		s.ThrottledFrac = float64(st.throttledTicks) / float64(st.samples)
		s.ShutdownFrac = float64(st.downTicks) / float64(st.samples)
	}
	return s
}
