package scenario

import (
	"hmcsim/internal/cooling"
	"hmcsim/internal/mem"
	"hmcsim/internal/thermal"
)

// chainShadowStep is the per-hop cooling shadow on chained cubes:
// cube i of a chain sits in the exhaust of the cubes before it, so
// its shared thermal resistance is scaled by 1 + chainShadowStep*i.
// The gradient is what makes tenant placement a thermal decision —
// the same hot set costs more on a downstream cube.
const chainShadowStep = 0.15

// thermalLoop bundles the throttle decorator and the feedback
// runtime a thermal run wires around its backend.
type thermalLoop struct {
	cooling  cooling.Config
	throttle *mem.Throttle
	runtime  *thermal.Runtime
}

// buildThermalLoop wraps a built backend with the throttle decorator
// and the feedback runtime. Chains get one thermal zone per cube
// (per-cube counters, cooling-shadow resistance gradient); single
// devices get one zone driven by the backend totals. The throttle
// stretch unit is half the backend's latency floor per level — at
// the default MaxLevel 8 a fully derated zone runs at ~5x its floor.
// o is prepared, so o.Cooling names a known environment.
func buildThermalLoop(o Options, be mem.Backend) (*thermalLoop, error) {
	cfg, err := cooling.ByName(o.Cooling)
	if err != nil {
		return nil, err
	}
	rc := thermal.DefaultRuntimeConfig(cfg)
	zones := 1
	var zoneOf func(addr uint64) int
	var counters func(z int) mem.Counters
	// Peel decorators (the fault injector sits under the throttle) so
	// a chain's per-cube zone structure is found wherever it is in
	// the stack; the throttle still wraps the decorated backend.
	inner := be
	for {
		d, ok := inner.(interface{ Inner() mem.Backend })
		if !ok {
			break
		}
		inner = d.Inner()
	}
	if ch, isChain := inner.(*mem.Chain); isChain {
		nw := ch.Network()
		zones = nw.Cubes()
		zoneOf = func(addr uint64) int {
			cube, _ := nw.Decode(addr)
			return cube
		}
		counters = func(z int) mem.Counters {
			c := nw.Cube(z).Counters()
			return mem.Counters{
				Accesses:  c.Reads + c.Writes,
				Reads:     c.Reads,
				Writes:    c.Writes,
				DataBytes: c.DataBytes,
				WireBytes: c.WireBytes,
				Errors:    c.Rejected,
			}
		}
		scale := make([]float64, zones)
		for i := range scale {
			scale[i] = 1 + chainShadowStep*float64(i)
		}
		rc.ZoneResistanceScale = scale
	}
	th := mem.NewThrottle(be, zones, zoneOf, be.MinLatency()/2)
	rt, err := thermal.NewRuntime(th, rc, counters)
	if err != nil {
		return nil, err
	}
	return &thermalLoop{cooling: cfg, throttle: th, runtime: rt}, nil
}

// stats snapshots the loop's telemetry into the Result shape.
func (l *thermalLoop) stats() *ThermalStats {
	s := &ThermalStats{Cooling: l.cooling.Name, Rejected: l.throttle.Rejected()}
	for z := 0; z < l.runtime.Zones(); z++ {
		s.Zones = append(s.Zones, l.runtime.ZoneStats(z))
	}
	return s
}

// ThermalStats is a run's closed-loop feedback telemetry.
type ThermalStats struct {
	// Cooling is the Table III environment simulated.
	Cooling string
	// Zones holds one entry per thermal zone (per cube on chains).
	Zones []thermal.ZoneStats
	// Rejected counts accesses refused while zones were shut down.
	Rejected uint64
}

// MaxC is the hottest temperature any zone reached.
func (s *ThermalStats) MaxC() float64 {
	max := 0.0
	for _, z := range s.Zones {
		if z.MaxC > max {
			max = z.MaxC
		}
	}
	return max
}
