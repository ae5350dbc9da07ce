package fault_test

import (
	"testing"

	"hmcsim/internal/chain"
	"hmcsim/internal/fault"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// TestInjectorTransparent: a zero plan makes the decorator invisible —
// identical timing, counters and contract surface on every backend.
func TestInjectorTransparent(t *testing.T) {
	for _, inner := range backends(t) {
		name, cap, min := inner.Name(), inner.CapacityBytes(), inner.MinLatency()
		inj := inject(t, inner, fault.Config{})
		inj.Start(sim.Millisecond)
		if inj.Name() != name || inj.CapacityBytes() != cap || inj.MinLatency() != min {
			t.Errorf("%s: decorator changed the contract surface", name)
		}
		var r mem.Result
		inj.Port(0).Submit(mem.Request{Addr: 4096, Size: 64}, func(res mem.Result) { r = res })
		inj.Engine().Run()
		if r.Err || r.Deliver <= r.Submit {
			t.Errorf("%s: pass-through completion %+v", name, r)
		}
		if c := inj.Counters(); c.Accesses != 1 || c.Errors != 0 {
			t.Errorf("%s: counters %+v after one clean access", name, c)
		}
		if inj.Injected() != 0 || inj.Outages() != 0 {
			t.Errorf("%s: zero plan injected something", name)
		}
	}
}

// TestInjectorTransientStretch: at rate=1 every completion is
// stretched by exactly RetryCost, with Submit pinned to the original
// instant. Fresh backends per run so inner state matches.
func TestInjectorTransientStretch(t *testing.T) {
	builders := []func() mem.Backend{
		func() mem.Backend { return buildHMC(t) },
		func() mem.Backend { return buildDDR(t, 1) },
		func() mem.Backend { return buildChain(t, 4, chain.Chain) },
	}
	const cost = 100 * sim.Nanosecond
	for _, build := range builders {
		lat := func(rate float64) (string, sim.Duration) {
			inj := inject(t, build(), fault.Config{Plan: fault.Plan{Rate: rate, RetryCost: cost}})
			inj.Start(sim.Millisecond)
			var r mem.Result
			inj.Port(0).Submit(mem.Request{Addr: 4096, Size: 64}, func(res mem.Result) { r = res })
			inj.Engine().Run()
			if r.Err {
				t.Fatalf("%s: transient error surfaced as Err: %+v", inj.Name(), r)
			}
			if r.Submit != 0 {
				t.Fatalf("%s: Submit %v, want original instant 0", inj.Name(), r.Submit)
			}
			return inj.Name(), r.Latency()
		}
		name, base := lat(0)
		if _, got := lat(1); got != base+cost {
			t.Errorf("%s: injected latency %v, want base %v + retry cost %v", name, got, base, cost)
		}
	}
}

// TestInjectorDefaultRetryCost: RetryCost 0 derives one round trip at
// the backend's latency floor, so at rate=1 a completion is stretched
// by exactly MinLatency.
func TestInjectorDefaultRetryCost(t *testing.T) {
	lat := func(rate float64) sim.Duration {
		inj := inject(t, buildDDR(t, 1), fault.Config{Plan: fault.Plan{Rate: rate}})
		inj.Start(sim.Millisecond)
		var r mem.Result
		inj.Port(0).Submit(mem.Request{Addr: 4096, Size: 64}, func(res mem.Result) { r = res })
		inj.Engine().Run()
		return r.Latency()
	}
	floor := buildDDR(t, 1).MinLatency()
	if got, want := lat(1), lat(0)+floor; got != want {
		t.Errorf("latency at rate 1 = %v, want %v: one derived RetryCost of MinLatency %v", got, want, floor)
	}
}

// TestInjectorScriptedOutage: a scripted fail/repair pair opens and
// closes an outage window — errors at the latency floor inside it,
// clean completions outside, and the inner backend never sees the
// rejected accesses.
func TestInjectorScriptedOutage(t *testing.T) {
	inner := buildChain(t, 4, chain.Chain)
	perCube := inner.CapacityBytes() / 4
	zoneOf := func(addr uint64) int { return int(addr / perCube % 4) }
	inj := inject(t, inner, fault.Config{
		Plan:   mustParse(t, "fail=1@1us,repair=1@5us"),
		Zones:  4,
		ZoneOf: zoneOf,
	})
	inj.Start(sim.Millisecond)
	eng := inj.Engine()
	port := inj.Port(0)

	// Step only until the completion fires, so pending scripted fault
	// events stay queued for their own timestamps.
	submit := func(addr uint64) mem.Result {
		var r mem.Result
		got := false
		port.Submit(mem.Request{Addr: addr, Size: 64}, func(res mem.Result) { r, got = res, true })
		for !got && eng.Step() {
		}
		if !got {
			t.Fatalf("access to %#x never completed", addr)
		}
		return r
	}

	if r := submit(1 * perCube); r.Err {
		t.Fatalf("pre-outage access errored: %+v", r)
	}
	eng.RunUntil(2 * sim.Microsecond) // inside the window
	r := submit(1 * perCube)
	if !r.Err || r.Latency() != inj.MinLatency() {
		t.Errorf("outage access %+v, want Err at the latency floor", r)
	}
	if r := submit(2 * perCube); r.Err {
		t.Errorf("healthy zone rejected during zone-1 outage: %+v", r)
	}
	eng.RunUntil(6 * sim.Microsecond) // past the repair
	if r := submit(1 * perCube); r.Err {
		t.Errorf("post-repair access errored: %+v", r)
	}

	if inj.Outages() != 1 {
		t.Errorf("Outages=%d, want 1", inj.Outages())
	}
	if c := inj.Counters(); c.Errors != 1 {
		t.Errorf("composed counters Errors = %d, want 1", c.Errors)
	}
	if c := inner.Counters(); c.Errors != 0 || c.Accesses != 3 {
		t.Errorf("inner counters %+v, want 3 clean accesses", c)
	}
}

// TestInjectorOutOfRangeZone: plan events naming zones the topology
// does not have are ignored, same contract as chain.Network.FailCube.
func TestInjectorOutOfRangeZone(t *testing.T) {
	inj := inject(t, buildDDR(t, 1), fault.Config{
		Plan:  mustParse(t, "fail=7@1us,repair=7@2us"),
		Zones: 2,
	})
	inj.Start(sim.Millisecond)
	inj.Engine().RunUntil(10 * sim.Microsecond)
	if inj.Outages() != 0 {
		t.Errorf("out-of-range fail counted as outage")
	}
	var r mem.Result
	inj.Port(0).Submit(mem.Request{Addr: 0, Size: 64}, func(res mem.Result) { r = res })
	inj.Engine().Run()
	if r.Err {
		t.Errorf("out-of-range fail affected traffic: %+v", r)
	}
}

// TestInjectorOutageForwarding: with OnFail/OnRepair set, outage
// transitions are forwarded to the backend's own failure model and
// downed-zone traffic still reaches the inner backend (which decides
// reroute vs error itself).
func TestInjectorOutageForwarding(t *testing.T) {
	inner := buildChain(t, 4, chain.Chain)
	nw := inner.Network()
	perCube := inner.CapacityBytes() / 4
	var fails, repairs []int
	inj := inject(t, inner, fault.Config{
		Plan:     mustParse(t, "fail=1@1us,repair=1@5us"),
		Zones:    4,
		ZoneOf:   func(addr uint64) int { return int(addr / perCube % 4) },
		OnFail:   func(z int) { fails = append(fails, z); nw.FailCube(z) },
		OnRepair: func(z int) { repairs = append(repairs, z); nw.RepairCube(z) },
	})
	inj.Start(sim.Millisecond)
	eng := inj.Engine()
	eng.RunUntil(2 * sim.Microsecond)
	if len(fails) != 1 || fails[0] != 1 {
		t.Fatalf("OnFail calls %v, want [1]", fails)
	}
	var r mem.Result
	inj.Port(0).Submit(mem.Request{Addr: 1 * perCube, Size: 64}, func(res mem.Result) { r = res })
	eng.Run()
	if !r.Err {
		t.Errorf("access into the failed cube did not error: %+v", r)
	}
	if got, want := inj.Counters().Errors, inner.Counters().Errors; got != want {
		t.Errorf("Errors=%d with forwarding enabled, want the network's %d: the network, not the injector, produces the errors", got, want)
	}
	// Traffic to a healthy cube still lands on the device.
	before := inner.Counters().Accesses
	inj.Port(0).Submit(mem.Request{Addr: 0, Size: 64}, func(res mem.Result) { r = res })
	eng.Run()
	if r.Err || inner.Counters().Accesses != before+1 {
		t.Errorf("healthy-cube access during the outage: err=%v, inner accesses %d->%d",
			r.Err, before, inner.Counters().Accesses)
	}
	eng.RunUntil(6 * sim.Microsecond)
	if len(repairs) != 1 || repairs[0] != 1 {
		t.Fatalf("OnRepair calls %v, want [1]", repairs)
	}
}

// TestInjectorRateEvent: a scripted rate change switches the
// transient probability mid-run.
func TestInjectorRateEvent(t *testing.T) {
	const cost = 100 * sim.Nanosecond
	inj := inject(t, buildDDR(t, 1), fault.Config{
		Plan: fault.Plan{RetryCost: cost, Events: []fault.Event{
			{At: 1 * sim.Microsecond, Kind: fault.Rate, Rate: 1},
			{At: 5 * sim.Microsecond, Kind: fault.Rate, Rate: 0},
		}},
	})
	inj.Start(sim.Millisecond)
	eng := inj.Engine()
	port := inj.Port(0)
	submit := func() {
		got := false
		port.Submit(mem.Request{Addr: 4096, Size: 64}, func(mem.Result) { got = true })
		for !got && eng.Step() {
		}
		if !got {
			t.Fatal("access never completed")
		}
	}
	submit() // rate 0: clean
	if inj.Injected() != 0 {
		t.Fatalf("injection before the rate event")
	}
	eng.RunUntil(2 * sim.Microsecond)
	submit() // rate 1: injected
	if inj.Injected() != 1 {
		t.Fatalf("Injected=%d after rate=1 window submit, want 1", inj.Injected())
	}
	eng.RunUntil(6 * sim.Microsecond)
	submit() // back to rate 0
	if inj.Injected() != 1 {
		t.Errorf("Injected=%d after rate reset, want 1", inj.Injected())
	}
}

// TestInjectorStochasticDeterminism: the MTBF/MTTR process replays
// byte-identically for a seed and diverges across seeds.
func TestInjectorStochasticDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, uint64, uint64) {
		inj := inject(t, buildDDR(t, 2), fault.Config{
			Plan:  mustParse(t, "mtbf=3us,mttr=1us,rate=0.01"),
			Seed:  seed,
			Zones: 2,
		})
		const horizon = 200 * sim.Microsecond
		inj.Start(horizon)
		port := inj.Port(0)
		eng := inj.Engine()
		var count int
		var resubmit mem.Done
		resubmit = func(mem.Result) {
			if count++; count < 4096 && eng.Now() < horizon {
				port.Submit(mem.Request{Addr: uint64(count) * 4096, Size: 64}, resubmit)
			}
		}
		port.Submit(mem.Request{Addr: 0, Size: 64}, resubmit)
		eng.RunUntil(horizon)
		eng.Run()
		return inj.Injected(), inj.Counters().Errors, inj.Outages()
	}
	i1, r1, o1 := run(7)
	i2, r2, o2 := run(7)
	if i1 != i2 || r1 != r2 || o1 != o2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) != (%d,%d,%d)", i1, r1, o1, i2, r2, o2)
	}
	if o1 == 0 {
		t.Fatal("3us MTBF over 200us produced no outages")
	}
	i3, r3, o3 := run(8)
	if i1 == i3 && r1 == r3 && o1 == o3 {
		t.Errorf("seeds 7 and 8 produced identical fault sequences (%d,%d,%d)", i3, r3, o3)
	}
}

// TestInjectorPortStable: repeated Port(i) calls return the same
// value even as higher indexes force the port table to grow.
func TestInjectorPortStable(t *testing.T) {
	inj := inject(t, buildDDR(t, 1), fault.Config{})
	p0 := inj.Port(0)
	_ = inj.Port(7)
	if inj.Port(0) != p0 {
		t.Fatal("Port(0) identity changed after growing the port table")
	}
}

// TestInjectorStartTwicePanics: double-arming the plan is a
// programming error, caught loudly.
func TestInjectorStartTwicePanics(t *testing.T) {
	inj := inject(t, buildDDR(t, 1), fault.Config{})
	inj.Start(sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	inj.Start(sim.Millisecond)
}

// TestInjectorSubmitZeroAlloc extends the package's zero-alloc gate
// to the injector: the clean path, the transient-stretch path and the
// outage-reject path all add 0 allocs/op after pool warmup.
func TestInjectorSubmitZeroAlloc(t *testing.T) {
	for _, inner := range backends(t) {
		inner := inner
		t.Run(inner.Name(), func(t *testing.T) {
			inj := inject(t, inner, fault.Config{Plan: fault.Plan{Rate: 0.5}})
			inj.Start(sim.Time(1) << 62)
			port := inj.Port(0)
			eng := inj.Engine()
			pending := 0
			done := func(mem.Result) { pending-- }
			submit := func() {
				pending++
				port.Submit(mem.Request{Addr: 1 << 20, Size: 64}, done)
				eng.Run()
			}
			for i := 0; i < 64; i++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
				t.Errorf("transient submit path allocates %.1f allocs/op, want 0", allocs)
			}
			// Open an outage window by script-free direct plan: use a
			// fresh injector with an immediate fail event.
			if pending != 0 {
				t.Fatalf("%d submissions never completed", pending)
			}
		})
	}
}

// TestInjectorRejectZeroAlloc: the outage-rejection path is also
// allocation-free.
func TestInjectorRejectZeroAlloc(t *testing.T) {
	inj := inject(t, buildDDR(t, 1), fault.Config{
		Plan: mustParse(t, "fail=0@1ns"),
	})
	inj.Start(sim.Time(1) << 62)
	eng := inj.Engine()
	eng.RunUntil(sim.Microsecond)
	port := inj.Port(0)
	pending := 0
	done := func(mem.Result) { pending-- }
	submit := func() {
		pending++
		port.Submit(mem.Request{Addr: 4096, Size: 64}, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
		t.Errorf("outage-reject submit path allocates %.1f allocs/op, want 0", allocs)
	}
	if pending != 0 {
		t.Fatalf("%d submissions never completed", pending)
	}
}
