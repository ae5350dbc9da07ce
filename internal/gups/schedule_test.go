package gups

import (
	"testing"

	"hmcsim/internal/sim"
)

// stallClock is a cyclic two-step arrival clock: 20 MRPS for the first
// 10 us of every 200 us (far past what a 4-deep window can serve),
// then 1 MRPS for the remaining 190 us to drain the arrears.
type stallClock struct{}

func (stallClock) Next(t sim.Time) sim.Time {
	if t%(200*sim.Microsecond) < 10*sim.Microsecond {
		return t + 50*sim.Nanosecond
	}
	return t + sim.Microsecond
}

// TestScheduleAbsoluteCatchUp pins the open-loop pacing discipline at
// the gups.Port level: an arrival clock whose burst step exceeds the
// port's service rate falls behind while the window is full, but the
// port keeps walking the ABSOLUTE schedule and releases the owed
// arrivals back-to-back during the slow step — so completions track
// the clock's arrival integral, not the port's transient service rate.
// A port that re-based nextIssue off the issuing instant would lose
// every arrival owed during the stall.
func TestScheduleAbsoluteCatchUp(t *testing.T) {
	horizon := 400 * sim.Microsecond
	rig, err := BuildRigPorts(Config{Seed: 3}, []PortConfig{{
		Type:        ReadOnly,
		Gen:         GenParams{Size: 128, Seed: PortSeed(3, 0)},
		Arrivals:    stallClock{},
		Outstanding: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rig.Ports {
		p.SetMeasuring(true)
		p.Start()
	}
	rig.Eng.RunUntil(horizon)
	got := rig.Ports[0].TakeMonitor().Reads
	// Two cycles owe 2 x (10us x 20 + 190us x 1) = 780 arrivals; all
	// but the final in-flight handful must complete. A count near the
	// service-limited ~500 means the port re-based off Now().
	if got < 740 || got > 790 {
		t.Fatalf("completions = %d, want ~780 (the clock's arrival integral)", got)
	}
}
