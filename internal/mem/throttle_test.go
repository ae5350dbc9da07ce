package mem

import (
	"testing"

	"hmcsim/internal/chain"
	"hmcsim/internal/sim"
)

func throttled(t testing.TB, inner Backend, zones int, zoneOf func(uint64) int) *Throttle {
	t.Helper()
	return NewThrottle(inner, zones, zoneOf, inner.MinLatency()/2)
}

// TestThrottleTransparent: at level 0 the decorator is invisible —
// identical timing, counters and contract surface on every backend.
func TestThrottleTransparent(t *testing.T) {
	for _, inner := range backends(t) {
		ref := struct {
			name string
			cap  uint64
			min  sim.Duration
		}{inner.Name(), inner.CapacityBytes(), inner.MinLatency()}
		th := throttled(t, inner, 1, nil)
		if th.Name() != ref.name || th.CapacityBytes() != ref.cap || th.MinLatency() != ref.min {
			t.Errorf("%s: decorator changed the contract surface", ref.name)
		}
		var r Result
		th.Port(0).Submit(Request{Addr: 4096, Size: 64}, func(res Result) { r = res })
		th.Engine().Run()
		if r.Err || r.Deliver <= r.Submit {
			t.Errorf("%s: pass-through completion %+v", ref.name, r)
		}
		if c := th.Counters(); c.Accesses != 1 || c.Errors != 0 {
			t.Errorf("%s: counters %+v after one clean access", ref.name, c)
		}
	}
}

// TestThrottleStretch: each throttle level adds exactly level*Unit to
// the port-observed latency, with Submit pinned to the original
// submission instant so the stretch is visible in measured latency.
// Each level runs on a fresh backend — inner latency depends on
// device state (DDR open pages), so only same-state runs compare.
func TestThrottleStretch(t *testing.T) {
	builders := []func() Backend{
		func() Backend { return buildHMC(t) },
		func() Backend { return buildDDR(t, 1) },
		func() Backend { return buildChain(t, 4, chain.Chain) },
	}
	for _, build := range builders {
		lat := func(level int) (string, sim.Duration, sim.Duration) {
			th := throttled(t, build(), 1, nil)
			th.SetLevel(0, level)
			var r Result
			start := th.Engine().Now()
			th.Port(0).Submit(Request{Addr: 4096, Size: 64}, func(res Result) { r = res })
			th.Engine().Run()
			if r.Submit != start {
				t.Fatalf("%s level %d: Submit %v, want original instant %v",
					th.Name(), level, r.Submit, start)
			}
			return th.Name(), r.Latency(), th.unit
		}
		name, base, unit := lat(0)
		for _, level := range []int{1, 3} {
			want := base + sim.Duration(level)*unit
			if _, got, _ := lat(level); got != want {
				t.Errorf("%s level %d: latency %v, want base %v + %d*unit = %v",
					name, level, got, base, level, want)
			}
		}
	}
}

// TestThrottleShutdownRejects: a shutdown zone rejects accesses with
// Err at the latency floor, counts them, and recovers when cleared;
// other zones are untouched.
func TestThrottleShutdownRejects(t *testing.T) {
	inner := buildChain(t, 4, chain.Chain)
	perCube := inner.CapacityBytes() / 4
	zoneOf := func(addr uint64) int { return int(addr / perCube % 4) }
	th := throttled(t, inner, 4, zoneOf)
	port := th.Port(0)
	th.SetShutdown(2, true)

	var got []Result
	done := func(r Result) { got = append(got, r) }
	port.Submit(Request{Addr: 2 * perCube, Size: 64}, done) // shut-down zone
	port.Submit(Request{Addr: 1 * perCube, Size: 64}, done) // healthy zone
	th.Engine().Run()
	if len(got) != 2 {
		t.Fatalf("%d of 2 completions", len(got))
	}
	if !got[0].Err || got[0].Latency() != th.MinLatency() {
		t.Errorf("shutdown access %+v, want Err at the latency floor", got[0])
	}
	if got[1].Err {
		t.Error("healthy zone rejected")
	}
	if th.Rejected() != 1 {
		t.Errorf("Rejected() = %d, want 1", th.Rejected())
	}
	if c := th.Counters(); c.Errors != 1 {
		t.Errorf("counters Errors = %d, want 1", c.Errors)
	}
	// The inner backend never saw the rejected access.
	if c := inner.Counters(); c.Accesses != 1 {
		t.Errorf("inner saw %d accesses, want 1", c.Accesses)
	}

	th.SetShutdown(2, false)
	got = got[:0]
	port.Submit(Request{Addr: 2 * perCube, Size: 64}, done)
	th.Engine().Run()
	if len(got) != 1 || got[0].Err {
		t.Fatalf("zone did not recover: %+v", got)
	}
}

// TestThrottleZoned: derating one zone leaves the others' latency
// untouched.
func TestThrottleZoned(t *testing.T) {
	inner := buildChain(t, 4, chain.Chain)
	perCube := inner.CapacityBytes() / 4
	zoneOf := func(addr uint64) int { return int(addr / perCube % 4) }
	th := throttled(t, inner, 4, zoneOf)
	port := th.Port(0)
	measure := func(addr uint64) sim.Duration {
		var r Result
		port.Submit(Request{Addr: addr, Size: 64}, func(res Result) { r = res })
		th.Engine().Run()
		return r.Latency()
	}
	base1, base3 := measure(1*perCube), measure(3*perCube)
	th.SetLevel(3, 4)
	if got := measure(1 * perCube); got != base1 {
		t.Errorf("zone 1 latency moved to %v (base %v) when zone 3 was derated", got, base1)
	}
	if got, want := measure(3*perCube), base3+4*th.unit; got != want {
		t.Errorf("zone 3 latency %v, want %v", got, want)
	}
}

// TestThrottlePortStable: repeated Port(i) calls return the same
// value even as higher indexes force the port table to grow.
func TestThrottlePortStable(t *testing.T) {
	th := throttled(t, buildDDR(t, 1), 1, nil)
	p0 := th.Port(0)
	_ = th.Port(7)
	if th.Port(0) != p0 {
		t.Fatal("Port(0) identity changed after growing the port table")
	}
}

// TestThrottleSubmitZeroAlloc extends the package's zero-alloc gate
// to the decorator: both the derated pass-through path and the
// shutdown-reject path add 0 allocs/op after pool warmup.
func TestThrottleSubmitZeroAlloc(t *testing.T) {
	for _, inner := range backends(t) {
		th := throttled(t, inner, 1, nil)
		t.Run(th.Name(), func(t *testing.T) {
			port := th.Port(0)
			eng := th.Engine()
			pending := 0
			done := func(Result) { pending-- }
			submit := func() {
				pending++
				port.Submit(Request{Addr: 1 << 20, Size: 64}, done)
				eng.Run()
			}
			th.SetLevel(0, 2) // exercise the stretch scheduling path
			for i := 0; i < 64; i++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
				t.Errorf("derated submit path allocates %.1f allocs/op, want 0", allocs)
			}
			th.SetShutdown(0, true)
			for i := 0; i < 64; i++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
				t.Errorf("shutdown submit path allocates %.1f allocs/op, want 0", allocs)
			}
			if pending != 0 {
				t.Fatalf("%d submissions never completed", pending)
			}
		})
	}
}
