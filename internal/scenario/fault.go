package scenario

import (
	"fmt"

	"hmcsim/internal/fault"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// Faults configures fault injection and the drivers' client-side
// resilience for a run. The zero value disables both. Injection and
// resilience are independent knobs: a plan without retries shows raw
// degradation, retries without a plan still catch backend-native
// errors (failed cubes, shutdown zones).
type Faults struct {
	// Plan is the injection schedule in the fault.ParsePlan grammar
	// (transient error rate, retry cost, MTBF/MTTR, scripted
	// fail/repair/rate events); empty injects nothing.
	Plan string
	// MaxRetries bounds the drivers' resubmissions of an errored
	// request (0 = errors surface immediately).
	MaxRetries int
	// Backoff is the base retry delay, doubled per attempt
	// (exponential backoff); 0 derives the backend's latency floor.
	Backoff sim.Duration
	// Deadline bounds a request end to end across all retries; a
	// request that cannot complete in time is abandoned (0 = none).
	Deadline sim.Duration
}

// Active reports whether any injection or resilience knob is set.
func (f Faults) Active() bool {
	return f.Plan != "" || f.MaxRetries != 0 || f.Backoff != 0 || f.Deadline != 0
}

// validate pre-flights the fault surface.
func (f Faults) validate() error {
	if _, err := fault.ParsePlan(f.Plan); err != nil {
		return err
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("scenario: negative MaxRetries %d", f.MaxRetries)
	}
	if f.Backoff < 0 || f.Deadline < 0 {
		return fmt.Errorf("scenario: negative fault backoff/deadline")
	}
	return nil
}

// buildInjector wraps a built backend with the fault injector, mapped
// onto the backend's natural outage zones: cubes on a chain (outages
// forwarded to the network's own failure model, so chain severing and
// ring rerouting come from the topology), channels on ddr4, one zone
// on a single cube. The decorator sits innermost — a thermal throttle
// wraps around it, like a controller in front of a flaky device.
func buildInjector(be mem.Backend, plan fault.Plan, seed uint64) (*fault.Injector, error) {
	cfg := fault.Config{Plan: plan, Seed: seed, Zones: 1}
	switch b := be.(type) {
	case *mem.Chain:
		nw := b.Network()
		cfg.Zones = nw.Cubes()
		cfg.ZoneOf = func(addr uint64) int {
			cube, _ := nw.Decode(addr)
			return cube
		}
		cfg.OnFail = nw.FailCube
		cfg.OnRepair = nw.RepairCube
	case *mem.DDR:
		cfg.Zones = b.Channels()
		cfg.ZoneOf = b.ChannelOf
	}
	return fault.New(be, cfg)
}
