package experiments

import (
	"fmt"

	"hmcsim/internal/ddr"
	"hmcsim/internal/gups"
	"hmcsim/internal/pim"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/trace"
)

// ExtDDRData compares the HMC against the DDR4 channel baseline the
// paper frames its latency and page-policy discussion around.
type ExtDDRData struct {
	// HMC and DDR rows per (mode, metric).
	HMCLinearGBps, HMCRandomGBps float64
	DDRLinearGBps, DDRRandomGBps float64
	// Low-load latency comparison: end-to-end and device-internal.
	HMCLatencyNs, HMCInternalNs float64
	DDRLatencyNs                float64
	// DDRHitRateLinear shows the locality behaviour HMC gives up.
	DDRHitRateLinear float64
}

// ExtDDR runs the baseline comparison: 64 B linear/random reads on
// both memories, plus the Section IV-E2 latency ratio.
func ExtDDR(o Options) (*ExtDDRData, error) {
	d := &ExtDDRData{}
	// HMC side: full-scale GUPS, 64 B.
	for _, mode := range []gups.Mode{gups.Linear, gups.Random} {
		res, err := gups.Run(gups.Config{
			Type: gups.ReadOnly, Size: 64, Mode: mode,
			Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		if mode == gups.Linear {
			d.HMCLinearGBps = res.DataGBps
		} else {
			d.HMCRandomGBps = res.DataGBps
		}
	}
	// DDR side: one tenant of 64 B reads on one open-page channel.
	// Only the windows and the seed carry over, so the run overlays
	// (thermal, faults, traffic) leave this comparison untouched.
	so := scenario.Options{Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed}
	for _, kind := range []string{"linear", "uniform"} {
		res, err := scenario.Run(scenario.Spec{
			Name: "ext-ddr-" + kind, Backend: "ddr4",
			Tenants: []scenario.Tenant{{Name: "load", Size: 64, Access: scenario.Access{Kind: kind}}},
		}, so)
		if err != nil {
			return nil, err
		}
		if kind == "linear" {
			d.DDRLinearGBps = res.Total.DataGBps
			d.DDRHitRateLinear = res.RowHitRate
		} else {
			d.DDRRandomGBps = res.Total.DataGBps
		}
	}

	// Latency: one low-load access each.
	stream, err := gups.RunStream(gups.StreamConfig{N: 2, Size: 64, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	d.HMCLatencyNs = stream.LatencyNs.Min()
	f14, err := Figure14(o)
	if err != nil {
		return nil, err
	}
	d.HMCInternalNs = f14.DeviceNs

	cfg := ddr.DefaultConfig()
	cfg.ClosedPage = true
	eng := sim.NewEngine()
	defer eng.Release()
	ch, err := ddr.NewChannel(eng, cfg)
	if err != nil {
		return nil, err
	}
	ch.Access(0, 0, 64, false, func(r ddr.Result) {
		d.DDRLatencyNs = r.Latency().Nanoseconds()
	})
	eng.Run()
	return d, nil
}

// Report renders the baseline comparison.
func (d *ExtDDRData) Report() Report {
	bw := Grid{
		Title: "Data bandwidth (GB/s), 64 B reads: HMC 1.1 vs one DDR4-2400 channel",
		Cols:  []string{"Memory", "Linear", "Random", "Random/Linear"},
	}
	bw.AddRow("HMC 1.1 (2 links)", f2(d.HMCLinearGBps), f2(d.HMCRandomGBps),
		f2(d.HMCRandomGBps/d.HMCLinearGBps))
	bw.AddRow("DDR4-2400 (1 ch)", f2(d.DDRLinearGBps), f2(d.DDRRandomGBps),
		f2(d.DDRRandomGBps/d.DDRLinearGBps))
	lat := Grid{
		Title: "Low-load read latency (ns)",
		Cols:  []string{"Path", "Latency"},
	}
	lat.AddRow("HMC end-to-end (incl. FPGA infrastructure)", f0(d.HMCLatencyNs))
	lat.AddRow("HMC in-device", f0(d.HMCInternalNs))
	lat.AddRow("DDR4 closed-page access", f0(d.DDRLatencyNs))
	lat.AddRow("ratio in-device / DDR", f2(d.HMCInternalNs/d.DDRLatencyNs))
	return Report{ID: "ext-ddr", Title: "DDR4 Baseline Comparison", Grids: []Grid{bw, lat},
		Notes: []string{
			"HMC holds bandwidth under random access (closed page, 256 banks); DDR4 loses its row-buffer advantage",
			fmt.Sprintf("the paper estimates the packet-switched latency impact at ~2x a typical DRAM access; measured ratio %.2f", d.HMCInternalNs/d.DDRLatencyNs),
			fmt.Sprintf("DDR4 linear row-hit rate: %.0f%%", d.DDRHitRateLinear*100),
		}}
}

// ExtPIMData holds the PIM offload study.
type ExtPIMData struct {
	Chase  pim.Compare
	Stream pim.Compare
}

// ExtPIM runs the processing-in-memory offload comparison for a
// latency-bound chase and a bandwidth-bound stream, with the thermal
// assessment the paper's Section I motivates.
func ExtPIM(o Options) (*ExtPIMData, error) {
	chase, err := pim.Offload(pim.Kernel{
		Name: "pointer chase (64 B)",
		Gen: func() trace.Generator {
			return trace.NewChaseGen(o.Seed+1, 64, 400, 1<<32-1)
		},
	})
	if err != nil {
		return nil, err
	}
	stream, err := pim.Offload(pim.Kernel{
		Name: "stream (128 B)",
		Gen: func() trace.Generator {
			return &trace.StrideGen{Stride: 128, Size: 128, Count: 6000}
		},
		Window: 64,
	})
	if err != nil {
		return nil, err
	}
	return &ExtPIMData{Chase: chase, Stream: stream}, nil
}

// Report renders the PIM study.
func (d *ExtPIMData) Report() Report {
	g := Grid{
		Title: "Host path vs vault-local (PIM) execution",
		Cols: []string{"Kernel", "Host GB/s", "PIM GB/s", "Host lat (ns)", "PIM lat (ns)",
			"Speedup", "PIM power (W)", "Fails at"},
	}
	for _, c := range []pim.Compare{d.Chase, d.Stream} {
		g.AddRow(c.Kernel,
			f2(c.Host.DataGBps), f2(c.PIM.DataGBps),
			f0(c.Host.LatencyNs.Mean()), f0(c.PIM.LatencyNs.Mean()),
			f2(c.Speedup), f2(c.PIMPowerW), fmt.Sprint(c.FailsAt))
	}
	temps := Grid{
		Title: "PIM steady surface temperature per cooling configuration (degC)",
		Cols:  []string{"Kernel", "Cfg1", "Cfg2", "Cfg3", "Cfg4"},
	}
	for _, c := range []pim.Compare{d.Chase, d.Stream} {
		temps.AddRow(c.Kernel, f1(c.SurfaceC["Cfg1"]), f1(c.SurfaceC["Cfg2"]),
			f1(c.SurfaceC["Cfg3"]), f1(c.SurfaceC["Cfg4"]))
	}
	return Report{ID: "ext-pim", Title: "PIM Offload Study", Grids: []Grid{g, temps},
		Notes: []string{
			"vault-local execution removes the ~580 ns host infrastructure from every dependent dereference",
			"an unthrottled PIM stream exceeds the write-workload thermal bound under weak cooling: sustained operation leads to failure (Section I)",
		}}
}
