package hmc

import (
	"testing"

	"hmcsim/internal/sim"
)

func newTestDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	amap, err := NewAddressMap(Geometries(HMC11), Block128)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(eng, DefaultParams(), amap)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev
}

func TestDeviceSingleRead(t *testing.T) {
	eng, dev := newTestDevice(t)
	var res AccessResult
	done := false
	dev.Submit(0, 0, Request{Addr: 0, Size: 128}, func(r AccessResult) {
		res, done = r, true
	})
	eng.Run()
	if !done {
		t.Fatal("response never delivered")
	}
	if res.Err {
		t.Fatal("healthy device returned error")
	}
	lat := res.Deliver - res.Submit
	// Device-internal portion of the low-load round trip; the FPGA
	// TX/RX paths are added by the controller. Sanity band only; the
	// precise low-load calibration is asserted in the gups tests.
	if lat < 100*sim.Nanosecond || lat > 400*sim.Nanosecond {
		t.Fatalf("device round trip = %v, outside sanity band", lat)
	}
	if !(res.Submit <= res.DeviceArrive && res.DeviceArrive <= res.BankStart &&
		res.BankStart < res.BankEnd && res.BankEnd <= res.RespDepart &&
		res.RespDepart < res.Deliver) {
		t.Fatalf("timestamps out of order: %+v", res)
	}
	c := dev.Counters()
	if c.Reads != 1 || c.Writes != 0 || c.DataBytes != 128 || c.WireBytes != 160 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDeviceWriteCounters(t *testing.T) {
	eng, dev := newTestDevice(t)
	dev.Submit(0, 0, Request{Addr: 4096, Size: 64, Write: true}, func(AccessResult) {})
	eng.Run()
	c := dev.Counters()
	if c.Writes != 1 || c.DataBytes != 64 || c.WireBytes != 96 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDeviceBankSerialization: two back-to-back requests to the same
// bank must serialize on the bank, while requests to different vaults
// overlap.
func TestDeviceBankSerialization(t *testing.T) {
	eng, dev := newTestDevice(t)
	amap := dev.AddressMap()
	sameBank := []uint64{amap.Encode(0, 0, 0), amap.Encode(0, 0, 1)}
	var deliver []sim.Time
	for _, a := range sameBank {
		dev.Submit(0, 0, Request{Addr: a, Size: 128}, func(r AccessResult) {
			deliver = append(deliver, r.Deliver)
		})
	}
	eng.Run()
	if len(deliver) != 2 {
		t.Fatal("missing deliveries")
	}
	gapSame := deliver[1] - deliver[0]

	eng2 := sim.NewEngine()
	dev2 := MustDevice(eng2, DefaultParams(), amap)
	diffVault := []uint64{amap.Encode(0, 0, 0), amap.Encode(5, 0, 0)}
	deliver = nil
	for _, a := range diffVault {
		dev2.Submit(0, 0, Request{Addr: a, Size: 128}, func(r AccessResult) {
			deliver = append(deliver, r.Deliver)
		})
	}
	eng2.Run()
	gapDiff := deliver[1] - deliver[0]
	if gapSame <= gapDiff {
		t.Fatalf("same-bank gap %v not larger than cross-vault gap %v", gapSame, gapDiff)
	}
	occ := DefaultParams().BankAccess
	if gapSame < occ {
		t.Fatalf("same-bank gap %v below one bank occupancy %v", gapSame, occ)
	}
}

// TestDeviceQuadrantLocality: an access to the link's own quadrant is
// faster than one to a remote quadrant (Section II-B).
func TestDeviceQuadrantLocality(t *testing.T) {
	_, dev := newTestDevice(t)
	amap := dev.AddressMap()
	measure := func(vault int) sim.Duration {
		eng := sim.NewEngine()
		d := MustDevice(eng, DefaultParams(), amap)
		var lat sim.Duration
		d.Submit(0, 0, Request{Addr: amap.Encode(vault, 0, 0), Size: 128}, func(r AccessResult) {
			lat = r.Deliver - r.Submit
		})
		eng.Run()
		return lat
	}
	local := measure(0)   // quadrant 0, link 0's home
	remote := measure(15) // quadrant 3
	want := 2 * DefaultParams().QuadrantHop
	if remote-local != want {
		t.Fatalf("remote-local latency delta = %v, want %v", remote-local, want)
	}
}

// TestDeviceSizeLatencyOrdering: 32 B reads are never slower than
// 128 B reads (Section IV-E3).
func TestDeviceSizeLatencyOrdering(t *testing.T) {
	amap := MustAddressMap(Geometries(HMC11), Block128)
	measure := func(size int) sim.Duration {
		eng := sim.NewEngine()
		d := MustDevice(eng, DefaultParams(), amap)
		var lat sim.Duration
		d.Submit(0, 0, Request{Addr: 0, Size: size}, func(r AccessResult) {
			lat = r.Deliver - r.Submit
		})
		eng.Run()
		return lat
	}
	if l32, l128 := measure(32), measure(128); l32 >= l128 {
		t.Fatalf("32 B latency %v >= 128 B latency %v", l32, l128)
	}
}

func TestDeviceThermalFailure(t *testing.T) {
	eng, dev := newTestDevice(t)
	st := NewStorage(dev.Geometry())
	dev.AttachStorage(st)
	if err := st.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dev.TriggerThermalFailure()
	if !dev.failed {
		t.Fatal("device not failed after trigger")
	}
	var res AccessResult
	dev.Submit(0, 0, Request{Addr: 0, Size: 128}, func(r AccessResult) { res = r })
	eng.Run()
	if !res.Err {
		t.Fatal("failed device served a request without error flag")
	}
	if dev.Counters().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", dev.Counters().Rejected)
	}
	// Data is lost on thermal shutdown.
	got, err := st.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatal("DRAM contents survived thermal shutdown")
	}
	// Recovery: reset clears the failure latch.
	dev.Reset()
	if dev.failed {
		t.Fatal("device still failed after reset")
	}
	ok := false
	dev.Submit(eng.Now(), 0, Request{Addr: 0, Size: 128}, func(r AccessResult) { ok = !r.Err })
	eng.Run()
	if !ok {
		t.Fatal("device did not serve after recovery")
	}
}

func TestDeviceOpenPagePolicy(t *testing.T) {
	amap := MustAddressMap(Geometries(HMC11), Block128)
	run := func(policy PagePolicy) (sim.Time, Counters) {
		eng := sim.NewEngine()
		d := MustDevice(eng, DefaultParams(), amap)
		d.SetPagePolicy(policy)
		// Two 128 B accesses to the same 256 B row: a row holds two
		// max blocks, which in the same bank are 1<<15 apart under
		// the low-order-interleaved mapping.
		var last sim.Time
		a0 := amap.Encode(0, 0, 7)
		for _, a := range []uint64{a0, a0 + 1<<15} {
			dev := d
			dev.Submit(0, 0, Request{Addr: a, Size: 128}, func(r AccessResult) { last = r.Deliver })
		}
		eng.Run()
		return last, d.Counters()
	}
	closedEnd, _ := run(ClosedPage)
	openEnd, oc := run(OpenPage)
	if openEnd >= closedEnd {
		t.Fatalf("open-page row hit (%v) not faster than closed-page (%v)", openEnd, closedEnd)
	}
	if oc.RowHits != 1 || oc.RowMisses != 1 {
		t.Fatalf("open-page hits/misses = %d/%d, want 1/1", oc.RowHits, oc.RowMisses)
	}
}

func TestDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	amap := MustAddressMap(Geometries(HMC11), Block128)
	if _, err := NewDevice(nil, DefaultParams(), amap); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewDevice(eng, DefaultParams(), nil); err == nil {
		t.Error("nil map accepted")
	}
	p := DefaultParams()
	p.Links.Count = 0
	if _, err := NewDevice(eng, p, amap); err == nil {
		t.Error("zero links accepted")
	}
}

func TestDeviceSubmitPanics(t *testing.T) {
	eng, dev := newTestDevice(t)
	_ = eng
	for _, f := range []func(){
		func() { dev.Submit(0, 9, Request{Size: 128}, func(AccessResult) {}) },
		func() { dev.Submit(0, 0, Request{Size: 20}, func(AccessResult) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Submit did not panic")
				}
			}()
			f()
		}()
	}
}

// TestLinkSerializationByDirection: a read carries its payload on the
// response, so it occupies the RX lanes longer than TX; a write
// carries it on the request, the reverse. Both spans are read off the
// AccessResult timeline of one access on an idle link 0 to quadrant 0.
func TestLinkSerializationByDirection(t *testing.T) {
	for _, write := range []bool{false, true} {
		eng, dev := newTestDevice(t)
		p := dev.Params()
		var r AccessResult
		dev.Submit(0, 0, Request{Size: 128, Write: write}, func(res AccessResult) { r = res })
		eng.Run()
		if r.Loc.Quadrant != 0 {
			t.Fatalf("address 0 decoded to quadrant %d, want link 0's quadrant 0", r.Loc.Quadrant)
		}
		tx := r.DeviceArrive - r.Submit - p.LinkWireLatency - p.IngressLatency
		rx := r.Deliver - r.RespDepart - p.LinkWireLatency
		if tx <= 0 || rx <= 0 {
			t.Fatalf("write=%v: serialization tx %v rx %v, want both positive", write, tx, rx)
		}
		if !write && rx <= tx {
			t.Errorf("128 B read: response serialization %v not above request %v", rx, tx)
		}
		if write && tx <= rx {
			t.Errorf("128 B write: request serialization %v not above response %v", tx, rx)
		}
	}
}
