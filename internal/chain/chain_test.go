package chain

import (
	"testing"

	"hmcsim/internal/sim"
)

func newNet(t *testing.T, n int, topo Topology) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := NewNetwork(eng, n, topo, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func TestNetworkValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewNetwork(nil, 2, Chain, DefaultParams()); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewNetwork(eng, 0, Chain, DefaultParams()); err == nil {
		t.Error("zero cubes accepted")
	}
	if _, err := NewNetwork(eng, 9, Chain, DefaultParams()); err == nil {
		t.Error("nine cubes accepted")
	}
}

func TestCapacityScales(t *testing.T) {
	_, nw := newNet(t, 4, Chain)
	if got := nw.CapacityBytes(); got != 4*(4<<30) {
		t.Fatalf("capacity = %d, want 16 GB", got)
	}
	cube, local := nw.Decode(5 << 30) // 5 GB into the space
	if cube != 1 || local != 1<<30 {
		t.Fatalf("Decode(5GB) = cube %d local %d", cube, local)
	}
}

func TestLatencyGrowsPerHop(t *testing.T) {
	_, nw := newNet(t, 4, Chain)
	eng := nw.eng
	capBytes := uint64(4 << 30)
	var lats [4]sim.Duration
	for c := 0; c < 4; c++ {
		c := c
		nw.Access(eng.Now(), uint64(c)*capBytes, 128, false, func(r Result) {
			lats[c] = r.Deliver - r.Submit
			if r.Hops != c+1 {
				t.Errorf("cube %d: %d hops, want %d", c, r.Hops, c+1)
			}
		})
		eng.Run()
	}
	for c := 1; c < 4; c++ {
		if lats[c] <= lats[c-1] {
			t.Fatalf("latency not increasing with distance: %v", lats)
		}
	}
	// Each extra hop costs roughly two pass-throughs plus two wire
	// flights plus serialization: tens of ns, not microseconds.
	hopCost := lats[1] - lats[0]
	if hopCost < 80*sim.Nanosecond || hopCost > 350*sim.Nanosecond {
		t.Fatalf("per-hop cost %v outside the expected band", hopCost)
	}
}

func TestChainFailureSeversTail(t *testing.T) {
	_, nw := newNet(t, 4, Chain)
	eng := nw.eng
	nw.FailCube(1)
	capBytes := uint64(4 << 30)

	ok0, err2 := false, false
	nw.Access(eng.Now(), 0, 128, false, func(r Result) { ok0 = !r.Err })
	nw.Access(eng.Now(), 2*capBytes, 128, false, func(r Result) { err2 = r.Err })
	eng.Run()
	if !ok0 {
		t.Fatal("cube 0 should remain reachable")
	}
	if !err2 {
		t.Fatal("cube 2 behind the failure should be unreachable in a chain")
	}
}

// TestRingReroutesAroundFailure pins the paper's fault-tolerance
// claim: with a ring, traffic routes around a failed package.
func TestRingReroutesAroundFailure(t *testing.T) {
	_, nw := newNet(t, 4, Ring)
	eng := nw.eng
	capBytes := uint64(4 << 30)

	var before Result
	nw.Access(eng.Now(), 2*capBytes, 128, false, func(r Result) { before = r })
	eng.Run()
	if before.Err || before.Hops != 3 {
		t.Fatalf("pre-failure access to cube 2: %+v", before)
	}

	nw.FailCube(1)
	var after Result
	nw.Access(eng.Now(), 2*capBytes, 128, false, func(r Result) { after = r })
	eng.Run()
	if after.Err {
		t.Fatal("ring did not reroute around the failed cube")
	}
	if after.Hops != 2 {
		t.Fatalf("rerouted hops = %d, want 2 (backward around the ring)", after.Hops)
	}
	// The failed cube itself stays dead until repaired.
	var dead Result
	nw.Access(eng.Now(), 1*capBytes, 128, false, func(r Result) { dead = r })
	eng.Run()
	if !dead.Err {
		t.Fatal("failed cube served a request")
	}
	nw.RepairCube(1)
	var repaired Result
	nw.Access(eng.Now(), 1*capBytes, 128, false, func(r Result) { repaired = r })
	eng.Run()
	if repaired.Err {
		t.Fatal("repaired cube did not serve")
	}
}

func TestRingDoubleFailureUnreachable(t *testing.T) {
	_, nw := newNet(t, 4, Ring)
	eng := nw.eng
	nw.FailCube(1)
	nw.FailCube(3)
	var r2 Result
	nw.Access(eng.Now(), 2*(4<<30), 128, false, func(r Result) { r2 = r })
	eng.Run()
	if !r2.Err {
		t.Fatal("cube 2 reachable despite failures on both ring sides")
	}
}

func TestTopologyString(t *testing.T) {
	if Chain.String() != "chain" || Ring.String() != "ring" {
		t.Fatal("topology strings wrong")
	}
}

// TestFailRepairOutOfRange pins the bounds contract: FailCube and
// RepairCube ignore indexes the topology does not have instead of
// panicking — failure schedules are scripts, and a script naming a
// missing cube is a no-op.
func TestFailRepairOutOfRange(t *testing.T) {
	_, nw := newNet(t, 4, Chain)
	eng := nw.eng
	for _, i := range []int{-1, 4, 1 << 20} {
		nw.FailCube(i)
		nw.RepairCube(i)
	}
	// The network is untouched: every cube still answers.
	capBytes := uint64(4 << 30)
	okAll := 0
	for c := 0; c < 4; c++ {
		nw.Access(eng.Now(), uint64(c)*capBytes, 128, false, func(r Result) {
			if !r.Err {
				okAll++
			}
		})
	}
	eng.Run()
	if okAll != 4 {
		t.Fatalf("%d of 4 cubes reachable after out-of-range fail/repair", okAll)
	}
}
