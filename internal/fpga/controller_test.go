package fpga

import (
	"testing"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

func newRig(t *testing.T) (*sim.Engine, *hmc.Device, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	amap, err := hmc.NewAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hmc.NewDevice(eng, hmc.DefaultParams(), amap)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(eng, dev, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, ctrl
}

// TestLowLoadReadLatency pins the paper's low-load calibration: the
// minimum round trip is ~711 ns for 128 B reads and ~655 ns for 16 B
// reads (Section IV-E2), within a +-7% band.
func TestLowLoadReadLatency(t *testing.T) {
	cases := []struct {
		size   int
		wantNs float64
	}{
		{128, 711},
		{16, 655},
	}
	for _, c := range cases {
		eng, _, ctrl := newRig(t)
		var lat sim.Duration
		ctrl.Submit(hmc.Request{Addr: 0, Size: c.size}, func(r Result) {
			lat = r.Latency()
		})
		eng.Run()
		got := lat.Nanoseconds()
		if got < c.wantNs*0.93 || got > c.wantNs*1.07 {
			t.Errorf("size %d: low-load latency = %.0f ns, want %.0f +-7%%", c.size, got, c.wantNs)
		}
	}
}

func TestResultTimestampOrdering(t *testing.T) {
	eng, _, ctrl := newRig(t)
	var res Result
	ctrl.Submit(hmc.Request{Addr: 128, Size: 64}, func(r Result) { res = r })
	eng.Run()
	if !(res.Submit < res.DeviceArrive && res.Deliver < res.PortDeliver) {
		t.Fatalf("timestamps out of order: %+v", res)
	}
	if res.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

// TestRequestTimelinePinned pins the exact picosecond timeline and the
// engine event count of one isolated read and one isolated write. The
// values were recorded before the controller and device cached their
// per-request constants, so a cached constant that rounds differently,
// or an added or dropped event, shows up here. Both requests go to a
// remote quadrant (one QuadrantHop each way) and start off time zero,
// so the port-visible Submit differs from the link hand-off time.
func TestRequestTimelinePinned(t *testing.T) {
	cases := []struct {
		name  string
		start sim.Time
		req   hmc.Request
		want  [7]sim.Time // Submit, DeviceArrive, BankStart, BankEnd, RespDepart, Deliver, PortDeliver
	}{
		{"read128", 1_000_000, hmc.Request{Addr: 0x1_2345_6780, Size: 128, Port: 0},
			[7]sim.Time{1_000_000, 1_276_515, 1_289_315, 1_350_115, 1_430_915, 1_471_655, 1_740_272}},
		{"write64", 2_500_123, hmc.Request{Addr: 0x40_0c80, Size: 64, Write: true, Port: 3},
			[7]sim.Time{2_500_123, 2_784_744, 2_795_944, 2_850_344, 2_916_744, 2_946_604, 3_172_557}},
	}
	for _, c := range cases {
		eng, dev, ctrl := newRig(t)
		eng.RunUntil(c.start)
		var r Result
		calls := 0
		ctrl.Submit(c.req, func(res Result) { r = res; calls++ })
		eng.Run()
		if calls != 1 {
			t.Fatalf("%s: %d completions, want 1", c.name, calls)
		}
		got := [7]sim.Time{r.Submit, r.DeviceArrive, r.BankStart, r.BankEnd, r.RespDepart, r.Deliver, r.PortDeliver}
		if got != c.want {
			t.Errorf("%s: timeline %d ps, want %d ps", c.name, got, c.want)
		}
		if r.Req != c.req || r.Loc != dev.AddressMap().Decode(c.req.Addr) || r.Err {
			t.Errorf("%s: result carries req %+v loc %+v err %v", c.name, r.Req, r.Loc, r.Err)
		}
		// Link hand-off, device delivery, port drain.
		if n := eng.Processed(); n != 3 {
			t.Errorf("%s: %d engine events, want 3", c.name, n)
		}
	}
}

// TestSubmitRejectsBeforeMutating: an invalid payload size or port
// panics inside Submit with the device's message, before the
// transaction is counted or its bank slot taken, so the per-flit
// timing tables are never indexed out of range.
func TestSubmitRejectsBeforeMutating(t *testing.T) {
	eng, dev, ctrl := newRig(t)
	const addr = 0x4000
	completed := 0
	ctrl.Submit(hmc.Request{Addr: addr, Size: 64}, func(Result) { completed++ })
	deviceMsg := func(req hmc.Request) (msg any) {
		defer func() { msg = recover() }()
		dev.Submit(eng.Now(), 0, req, func(hmc.AccessResult) {})
		return nil
	}
	for _, req := range []hmc.Request{
		{Addr: addr, Size: 20},
		{Addr: addr, Size: 256},
		{Addr: addr, Size: 0, Write: true},
		{Addr: addr, Size: 64, Port: ctrl.Params().Ports},
		{Addr: addr, Size: 64, Port: -1},
	} {
		var got any
		func() {
			defer func() { got = recover() }()
			ctrl.Submit(req, func(Result) { t.Errorf("%+v completed", req) })
		}()
		if got == nil {
			t.Errorf("%+v: Submit did not panic", req)
			continue
		}
		if !hmc.ValidPayload(req.Size) {
			if want := deviceMsg(req); got != want {
				t.Errorf("%+v: panic %v, want the device's %v", req, got, want)
			}
		}
		if n := bankOutstanding(ctrl, addr); n != 1 {
			t.Fatalf("%+v: bank outstanding %d after a rejected Submit, want 1", req, n)
		}
	}
	eng.Run()
	if n := bankOutstanding(ctrl, addr); completed != 1 || n != 0 {
		t.Fatalf("completed %d, outstanding %d after drain", completed, n)
	}
}

// TestWritePipelineThroughput: 9-flit write requests through one node
// are limited by the TX flit pipeline; issuing many from one port
// spaces completions by ~flits/TxFlitsPerCycle cycles.
func TestWritePipelineThroughput(t *testing.T) {
	eng, dev, ctrl := newRig(t)
	const n = 200
	var count int
	for i := 0; i < n; i++ {
		// Distinct vaults so the device side never binds.
		addr := uint64(i) * 128
		ctrl.Submit(hmc.Request{Addr: addr, Size: 128, Write: true, Port: 0}, func(Result) { count++ })
	}
	eng.Run()
	if count != n {
		t.Fatalf("completed %d of %d", count, n)
	}
	elapsed := eng.Now()
	p := ctrl.Params()
	perReq := p.TxPipeTime(9)
	// The steady-state spacing should be within 25% of the pipe time.
	spacing := float64(elapsed) / float64(n)
	if spacing < float64(perReq)*0.75 || spacing > float64(perReq)*1.6 {
		t.Fatalf("write spacing = %.1f ns, pipe time %.1f ns", spacing/1000, float64(perReq)/1000)
	}
	_ = dev
}

// bankOutstanding is the flow-control count of the bank holding addr.
func bankOutstanding(c *Controller, addr uint64) int {
	return c.outstanding[c.amap.GlobalBank(addr)]
}

// TestBankAdmission: the flow-control stop signal blocks issue once a
// bank has BankQueueDepth outstanding requests, and WaitBank wakes
// the port when a slot frees.
func TestBankAdmission(t *testing.T) {
	eng, dev, ctrl := newRig(t)
	depth := dev.Params().BankQueueDepth
	addr := uint64(0) // bank 0 vault 0
	completed := 0
	for i := 0; i < depth; i++ {
		if !ctrl.CanIssue(addr) {
			t.Fatalf("admission blocked at %d < depth %d", i, depth)
		}
		ctrl.Submit(hmc.Request{Addr: addr, Size: 128}, func(Result) { completed++ })
	}
	if ctrl.CanIssue(addr) {
		t.Fatal("admission open at full depth")
	}
	if got := bankOutstanding(ctrl, addr); got != depth {
		t.Fatalf("outstanding = %d, want %d", got, depth)
	}
	// A different bank is unaffected.
	other := dev.AddressMap().Encode(3, 5, 0)
	if !ctrl.CanIssue(other) {
		t.Fatal("unrelated bank blocked")
	}
	woken := false
	ctrl.WaitBank(addr, func() { woken = true })
	eng.Run()
	if !woken {
		t.Fatal("waiter never woken")
	}
	if bankOutstanding(ctrl, addr) != 0 {
		t.Fatal("outstanding not drained")
	}
	if completed != depth {
		t.Fatalf("completed %d of %d", completed, depth)
	}
}

func TestPortLinkMapping(t *testing.T) {
	_, _, ctrl := newRig(t)
	// Nine ports across two nodes: five on link 0, four on link 1.
	counts := map[int]int{}
	for p := 0; p < ctrl.Params().Ports; p++ {
		counts[ctrl.PortLink(p)]++
	}
	if counts[0] != 5 || counts[1] != 4 {
		t.Fatalf("port distribution = %v, want 5/4", counts)
	}
}

// TestFigure14StageTable: the TX deconstruction matches the paper's
// stage budget — up to ~54 cycles (~287 ns) for a 9-flit request.
func TestFigure14StageTable(t *testing.T) {
	p := DefaultParams()
	var cycles float64
	var total sim.Duration
	for _, s := range p.TXStages(9) {
		if s.Cycles <= 0 || s.Path != "TX" || s.Name == "" {
			t.Fatalf("bad stage %+v", s)
		}
		cycles += s.Cycles
		total += s.Time
	}
	if cycles < 45 || cycles > 55 {
		t.Fatalf("TX total = %.1f cycles, want ~48-54", cycles)
	}
	if ns := total.Nanoseconds(); ns < 230 || ns > 300 {
		t.Fatalf("TX total = %.0f ns, want ~287", ns)
	}
	// A 1-flit read request is substantially cheaper.
	var readCycles float64
	for _, s := range p.TXStages(1) {
		readCycles += s.Cycles
	}
	if readCycles >= cycles {
		t.Fatal("read request TX not cheaper than write request TX")
	}
	// RX path for a 9-flit response lands near the paper's 260 ns.
	var rxTotal sim.Duration
	for _, s := range p.RXStages(9) {
		rxTotal += s.Time
	}
	if ns := rxTotal.Nanoseconds(); ns < 220 || ns > 300 {
		t.Fatalf("RX total = %.0f ns, want ~260", ns)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := DefaultParams()
	bad.ClockHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad = DefaultParams()
	bad.TxFlitsPerCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero flit rate accepted")
	}
	bad = DefaultParams()
	bad.Ports = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ports accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestNewControllerErrors(t *testing.T) {
	eng := sim.NewEngine()
	amap := hmc.MustAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128)
	dev := hmc.MustDevice(eng, hmc.DefaultParams(), amap)
	if _, err := NewController(nil, dev, DefaultParams()); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewController(eng, nil, DefaultParams()); err == nil {
		t.Error("nil device accepted")
	}
	bad := DefaultParams()
	bad.ClockHz = -1
	if _, err := NewController(eng, dev, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestClockCycle(t *testing.T) {
	p := DefaultParams()
	// 187.5 MHz -> 5333 ps.
	if c := p.Cycle(); c < 5332 || c > 5334 {
		t.Fatalf("cycle = %v ps, want ~5333", int64(c))
	}
	if got := p.Cycles(10); got != 10*p.Cycle() {
		t.Fatalf("Cycles(10) = %v", got)
	}
}
