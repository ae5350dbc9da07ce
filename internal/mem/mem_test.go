package mem

import (
	"testing"

	"hmcsim/internal/chain"
	"hmcsim/internal/fpga"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

func buildHMC(t testing.TB) *HMC {
	t.Helper()
	eng := sim.NewEngine()
	amap, err := hmc.NewAddressMap(hmc.Geometries(hmc.HMC11), hmc.DefaultMaxBlock)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hmc.NewDevice(eng, hmc.DefaultParams(), amap)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fpga.NewController(eng, dev, fpga.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return NewHMC(eng, dev, ctrl)
}

func buildDDR(t testing.TB, channels int) *DDR {
	t.Helper()
	be, err := NewDDR(sim.NewEngine(), DDRConfig{Channels: channels})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func buildChain(t testing.TB, cubes int, topo chain.Topology) *Chain {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := chain.NewNetwork(eng, cubes, topo, chain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return NewChain(eng, nw)
}

// backends returns one of each adapter for table tests.
func backends(t testing.TB) []Backend {
	return []Backend{buildHMC(t), buildDDR(t, 1), buildChain(t, 4, chain.Chain)}
}

// TestBackendContract: names, capacities, masks, limits and wire
// costs are coherent on every adapter.
func TestBackendContract(t *testing.T) {
	for _, be := range backends(t) {
		cap, mask := be.CapacityBytes(), be.CapMask()
		if cap == 0 {
			t.Errorf("%s: zero capacity", be.Name())
		}
		if mask < cap-1 {
			t.Errorf("%s: cap mask %#x does not cover capacity %d", be.Name(), mask, cap)
		}
		if mask&(mask+1) != 0 {
			t.Errorf("%s: cap mask %#x not 2^n-1", be.Name(), mask)
		}
		lim := be.Limits()
		if lim.ReadDepth <= 0 || lim.WriteDepth <= 0 {
			t.Errorf("%s: non-positive limits %+v", be.Name(), lim)
		}
		if be.WireBytes(false, 128) < 128 || be.WireBytes(true, 128) < 128 {
			t.Errorf("%s: wire bytes below payload", be.Name())
		}
		if be.Engine() == nil {
			t.Errorf("%s: nil engine", be.Name())
		}
	}
}

// TestRoundTrip: a read and a write complete on every backend with
// sane timing, and the counters snapshot moves.
func TestRoundTrip(t *testing.T) {
	for _, be := range backends(t) {
		port := be.Port(0)
		var results []Result
		done := func(r Result) { results = append(results, r) }
		port.Submit(Request{Addr: 4096, Size: 64}, done)
		port.Submit(Request{Addr: 8192, Size: 64, Write: true}, done)
		be.Engine().Run()
		if len(results) != 2 {
			t.Fatalf("%s: %d of 2 completions", be.Name(), len(results))
		}
		for _, r := range results {
			if r.Err {
				t.Errorf("%s: unexpected error", be.Name())
			}
			if r.Deliver <= r.Submit {
				t.Errorf("%s: non-positive latency %v", be.Name(), r.Latency())
			}
		}
		c := be.Counters()
		if c.Accesses != 2 {
			t.Errorf("%s: counters report %d accesses, want 2", be.Name(), c.Accesses)
		}
		if c.Reads != 1 || c.Writes != 1 {
			t.Errorf("%s: read/write split %d/%d, want 1/1", be.Name(), c.Reads, c.Writes)
		}
		if c.DataBytes != 128 {
			t.Errorf("%s: counters report %d payload bytes, want 128", be.Name(), c.DataBytes)
		}
		if c.WireBytes < c.DataBytes {
			t.Errorf("%s: wire bytes %d below payload %d", be.Name(), c.WireBytes, c.DataBytes)
		}
	}
}

// TestSubmitZeroAlloc guards the acceptance contract: after pool
// warmup, the mem.Port submit path adds 0 allocs/op on every backend
// when the caller passes a reusable Done value — the same discipline
// TestScheduleHandlerZeroAlloc enforces for the event kernel.
func TestSubmitZeroAlloc(t *testing.T) {
	for _, be := range backends(t) {
		be := be
		t.Run(be.Name(), func(t *testing.T) {
			port := be.Port(0)
			eng := be.Engine()
			pending := 0
			done := func(Result) { pending-- }
			submit := func() {
				pending++
				port.Submit(Request{Addr: 1 << 20, Size: 64}, done)
				eng.Run()
			}
			for i := 0; i < 64; i++ {
				submit() // warm the txn/flight/deliver/call pools
			}
			if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
				t.Errorf("%s submit path allocates %.1f allocs/op, want 0", be.Name(), allocs)
			}
			if pending != 0 {
				t.Fatalf("%s: %d submissions never completed", be.Name(), pending)
			}
		})
	}
}

// TestDDRInterleave: multi-channel routing covers every channel,
// preserves intra-block offsets, and is a bijection on block indexes.
func TestDDRInterleave(t *testing.T) {
	be := buildDDR(t, 4)
	gran := uint64(256)
	seen := map[int]bool{}
	for blk := uint64(0); blk < 64; blk++ {
		addr := blk*gran + 17
		ch, local := be.route(addr)
		seen[ch] = true
		if local%gran != 17 {
			t.Fatalf("offset not preserved: %d -> %d", addr, local)
		}
		if want := blk / 4 * gran; local-17 != want {
			t.Fatalf("block %d: local %d, want %d", blk, local-17, want)
		}
		if ch != int(blk%4) {
			t.Fatalf("block %d landed on channel %d", blk, ch)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 channels hit", len(seen))
	}
	// Single channel is the identity: a tenant driver addresses the
	// channel directly.
	one := buildDDR(t, 1)
	if ch, local := one.route(123457); ch != 0 || local != 123457 {
		t.Fatalf("single channel not identity: (%d, %d)", ch, local)
	}
}

// TestChainErrorResult: accesses to a failed cube surface Err through
// the unified Result, and the error is counted.
func TestChainErrorResult(t *testing.T) {
	be := buildChain(t, 4, chain.Ring)
	be.Network().FailCube(1)
	perCube := be.CapacityBytes() / 4
	port := be.Port(0)
	var got []Result
	done := func(r Result) { got = append(got, r) }
	port.Submit(Request{Addr: 1 * perCube, Size: 128}, done) // failed cube
	port.Submit(Request{Addr: 2 * perCube, Size: 128}, done) // rerouted
	be.Engine().Run()
	if len(got) != 2 {
		t.Fatalf("%d of 2 completions", len(got))
	}
	if !got[0].Err && !got[1].Err {
		t.Error("no error for the failed cube")
	}
	for _, r := range got {
		cube, _ := be.Network().Decode(r.Req.Addr)
		if (cube == 1) != r.Err {
			t.Errorf("cube %d err=%v", cube, r.Err)
		}
	}
}

// TestHMCPortRange: the HMC backend's hardware port indexes are
// bounds-checked.
func TestHMCPortRange(t *testing.T) {
	be := buildHMC(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range port did not panic")
		}
	}()
	be.Port(99)
}

// TestDDRConfigValidation: bad channel counts and interleaves are
// rejected.
func TestDDRConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewDDR(eng, DDRConfig{Channels: 9}); err == nil {
		t.Error("9 channels accepted")
	}
	if _, err := NewDDR(eng, DDRConfig{InterleaveBytes: 100}); err == nil {
		t.Error("interleave not a burst multiple accepted")
	}
	if _, err := NewDDR(nil, DDRConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
}
