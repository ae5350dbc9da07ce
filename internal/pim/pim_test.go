package pim

import (
	"testing"

	"hmcsim/internal/gups"
	"hmcsim/internal/mem"
	"hmcsim/internal/trace"
)

func chaseKernel(n int) Kernel {
	return Kernel{
		Name: "pointer chase",
		Gen: func() trace.Generator {
			return trace.NewChaseGen(7, 64, n, 1<<32-1)
		},
	}
}

func streamKernel(n int) Kernel {
	return Kernel{
		Name: "stream",
		Gen: func() trace.Generator {
			return &trace.StrideGen{Stride: 128, Size: 128, Count: n}
		},
		Window: 64,
	}
}

// TestPIMChaseSpeedup: a dependent chain is the textbook PIM win —
// each dereference skips the ~580 ns of host infrastructure, so the
// offload runs several times faster.
func TestPIMChaseSpeedup(t *testing.T) {
	c, err := Offload(chaseKernel(300))
	if err != nil {
		t.Fatal(err)
	}
	if c.Host.Accesses != 300 || c.PIM.Accesses != 300 {
		t.Fatalf("access counts host=%d pim=%d", c.Host.Accesses, c.PIM.Accesses)
	}
	if c.Speedup < 3 {
		t.Fatalf("chase offload speedup = %.2f, want >3 (link round trip removed)", c.Speedup)
	}
	// PIM per-dereference latency is the in-device portion only.
	if m := c.PIM.LatencyNs.Mean(); m < 50 || m > 250 {
		t.Fatalf("PIM dereference latency %.0f ns, want ~100-150", m)
	}
	if m := c.Host.LatencyNs.Mean(); m < 600 {
		t.Fatalf("host dereference latency %.0f ns, want ~700", m)
	}
}

// TestPIMStreamBandwidth: a bandwidth-bound stream taps the internal
// TSV bandwidth (16 vaults x 10 GB/s) that external links never see —
// the data-movement argument of the paper's introduction — while
// staying under the aggregate vault ceiling.
func TestPIMStreamBandwidth(t *testing.T) {
	c, err := Offload(streamKernel(4000))
	if err != nil {
		t.Fatal(err)
	}
	if c.PIM.DataGBps <= c.Host.DataGBps {
		t.Fatalf("PIM stream (%.2f GB/s) not above host stream (%.2f)",
			c.PIM.DataGBps, c.Host.DataGBps)
	}
	if c.PIM.DataGBps > 160.1 {
		t.Fatalf("PIM stream %.2f GB/s exceeds the 16x10 GB/s vault aggregate", c.PIM.DataGBps)
	}
}

// TestPIMThermalPrice: an unthrottled PIM stream pulls tens of GB/s
// through the DRAM layers with compute heat deposited in-stack — it
// exceeds the thermal envelope under every cooling configuration
// (the paper's Section I warning), while a throttled kernel is
// feasible under strong cooling but still fails the weak ones.
func TestPIMThermalPrice(t *testing.T) {
	full, err := Offload(streamKernel(4000))
	if err != nil {
		t.Fatal(err)
	}
	if full.PIMPowerW <= 16*VaultProcessorW {
		t.Fatalf("PIM power %.2f W missing DRAM activity", full.PIMPowerW)
	}
	if len(full.FailsAt) < 3 {
		t.Fatalf("unthrottled PIM fails only %v; thermal price missing", full.FailsAt)
	}
	// Temperatures rise monotonically Cfg1 -> Cfg4.
	if !(full.SurfaceC["Cfg1"] < full.SurfaceC["Cfg2"] &&
		full.SurfaceC["Cfg2"] < full.SurfaceC["Cfg3"] &&
		full.SurfaceC["Cfg3"] < full.SurfaceC["Cfg4"]) {
		t.Fatalf("temperatures not monotone: %v", full.SurfaceC)
	}

	// Throttled kernel: rate control (insight ii) makes PIM feasible
	// under the strongest cooling.
	throttled := streamKernel(1500)
	throttled.Window = 4
	tc, err := Offload(throttled)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tc.FailsAt {
		if name == "Cfg1" {
			t.Fatalf("throttled PIM fails even Cfg1 (%.1f degC)", tc.SurfaceC["Cfg1"])
		}
	}
	if len(tc.FailsAt) == 0 {
		t.Fatal("throttled PIM passes every config; proximity factor missing")
	}
}

func TestOffloadValidation(t *testing.T) {
	if _, err := Offload(Kernel{}); err == nil {
		t.Fatal("kernel without generator accepted")
	}
}

// TestLocalPortSubmitZeroAlloc extends the mem adapters' zero-alloc
// gate to the vault-local port: after pool warmup, a submission and
// its completion allocate nothing when the caller passes a reusable
// Done value.
func TestLocalPortSubmitZeroAlloc(t *testing.T) {
	rig, err := gups.BuildRigPorts(gups.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Eng.Release()
	port := newLocalPort(rig.Eng, rig.Dev)
	pending := 0
	done := func(mem.Result) { pending-- }
	submit := func() {
		pending++
		port.Submit(mem.Request{Addr: 1 << 20, Size: 64}, done)
		rig.Eng.Run()
	}
	for i := 0; i < 64; i++ {
		submit() // warm the call and delivery pools
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
		t.Errorf("vault-local submit path allocates %.1f allocs/op, want 0", allocs)
	}
	if pending != 0 {
		t.Fatalf("%d submissions never completed", pending)
	}
}
