// Command hmcsim measures one workload on the simulated AC-510 + HMC
// 1.1 stack and reports bandwidth, request rate, latency, and the
// thermal/power assessment under all four cooling configurations.
//
// Usage:
//
//	hmcsim [-type ro|wo|rw] [-size 128] [-pattern "16 vaults"]
//	       [-mode random|linear] [-ports 9] [-measure-us 800]
//	hmcsim -scenario zipfian            # run a declarative scenario
//	hmcsim -scenario zipfian -backend ddr4   # ... on another backend
//	hmcsim -scenario zipfian -tail=false     # ... without the percentile grid
//	hmcsim -scenario zipfian -thermal -cooling Cfg4  # ... with the feedback loop closed
//	hmcsim -scenario chain-4 -faults "rate=0.01,fail=2@300us,repair=2@500us" \
//	       -fault-retries 3 -fault-deadline-us 20    # ... under fault injection
//	hmcsim -scenario uniform -traffic "burst:8/0.5@10us/25us" -slo-ns 1500
//	                                    # ... under a bursty arrival overlay with an SLO
//	hmcsim -scenario burst              # run a production traffic-model scenario
//	hmcsim -scenario-list               # list the scenario library
//
// Pattern names follow the paper's figures: "16 vaults", "8 vaults",
// "4 vaults", "2 vaults", "1 vault", "8 banks", "4 banks", "2 banks",
// "1 bank", or "full" for the unrestricted address space. Scenario
// names come from the internal/scenario library (uniform, zipfian,
// hotspot, mixed-rw, seqjump, open-loop, tenants-4, chain-4, plus the
// cross-backend set: uniform-ddr4, hotspot-ddr4, tenants-4-ddr4).
// -backend re-targets a named scenario onto hmc, ddr4 or chain —
// every tenant mix, address distribution and injection mode runs on
// every backend (internal/mem).
package main

import (
	"flag"
	"fmt"
	"os"

	"hmcsim/internal/core"
	"hmcsim/internal/experiments"
	"hmcsim/internal/gups"
	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/workloads"
)

// report renders a measurement as the runner's structured report, so
// hmcsim shares output plumbing (text/CSV/JSON) with cmd/figures.
func report(m core.Measurement, typ, mode, patName string) runner.Report {
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	perf := runner.Grid{
		Title: "Measured performance",
		Cols:  []string{"Metric", "Value"},
	}
	perf.AddRow("raw GB/s", f2(m.Perf.RawGBps))
	perf.AddRow("data GB/s", f2(m.Perf.DataGBps))
	perf.AddRow("MRPS", f1(m.Perf.MRPS))
	perf.AddRow("read MRPS", f1(m.Perf.ReadMRPS))
	perf.AddRow("write MRPS", f1(m.Perf.WriteMRPS))
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	if h := m.ReadLatency(); h.N() > 0 {
		q := h.Percentiles(50, 90, 99, 99.9)
		perf.AddRow("read lat avg ns", f0(h.Mean()))
		perf.AddRow("read lat min ns", f0(h.Min()))
		perf.AddRow("read lat max ns", f0(h.Max()))
		perf.AddRow("read lat p50/p90 ns", f0(q[0])+" / "+f0(q[1]))
		perf.AddRow("read lat p99/p99.9 ns", f0(q[2])+" / "+f0(q[3]))
	}
	if h := m.WriteLatency(); h.N() > 0 {
		q := h.Percentiles(50, 99)
		perf.AddRow("write lat avg ns", f0(h.Mean()))
		perf.AddRow("write lat p50/p99 ns", f0(q[0])+" / "+f0(q[1]))
	}
	th := runner.Grid{
		Title: "Thermal/power assessment (steady state, 200 s)",
		Cols:  []string{"cfg", "surface degC", "junction", "machine W", "cooling W", "status"},
	}
	for _, tp := range m.Thermal {
		status := "ok"
		if tp.ThermallyFailed {
			status = "THERMAL FAILURE"
		}
		th.AddRow(tp.Config.Name, f1(tp.SurfaceC), f1(tp.JunctionC),
			f1(tp.MachineW), f2(tp.CoolingW), status)
	}
	return runner.Report{
		ID:    "measure",
		Title: fmt.Sprintf("%s %dB %s, %d ports, pattern %q", typ, m.Workload.Size, mode, m.Workload.Ports, patName),
		Grids: []runner.Grid{perf, th},
		Notes: []string{fmt.Sprintf("safe cooling configs: %v", m.SafeConfigs())},
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim:", err)
	os.Exit(1)
}

func main() {
	var so scenario.Options
	so.BindFlags(flag.CommandLine)
	flag.Uint64Var(&so.Seed, "seed", 1, "random seed")
	flag.BoolVar(&so.Tail, "tail", true, "append the tail-latency percentile grid (p50/p90/p99/p99.9) to scenario reports")
	typ := flag.String("type", "ro", "request mix: ro, wo or rw")
	size := flag.Int("size", 128, "request payload bytes (16..128, multiple of 16)")
	patName := flag.String("pattern", "full", "access pattern (figure label or 'full')")
	mode := flag.String("mode", "random", "addressing mode: random or linear")
	ports := flag.Int("ports", 9, "active GUPS ports (1-9)")
	measureUs := flag.Int("measure-us", 800, "measurement window, simulated microseconds")
	warmupUs := flag.Int("warmup-us", 150, "warmup window, simulated microseconds")
	format := flag.String("format", "", "structured output: text, csv or json (default: classic summary)")
	insights := flag.Bool("insights", false, "print the paper's design insights and exit")
	scenarioName := flag.String("scenario", "", "run a declarative workload scenario by name (see -scenario-list)")
	scenarioList := flag.Bool("scenario-list", false, "list the scenario library and exit")
	backendName := flag.String("backend", "", "re-target -scenario onto a memory backend: hmc, ddr4 or chain")
	flag.Parse()
	so.Warmup = sim.Duration(*warmupUs) * sim.Microsecond
	so.Measure = sim.Duration(*measureUs) * sim.Microsecond

	if *insights {
		for _, in := range core.Insights() {
			fmt.Printf("(%d) %s  [see %s]\n", in.N, in.Text, in.Experiment)
		}
		return
	}

	if *scenarioList {
		for _, s := range scenario.Library() {
			fmt.Printf("%-15s %s\n", s.Name, s.Description)
		}
		return
	}

	if *scenarioName == "" {
		if *backendName != "" {
			fail(fmt.Errorf("-backend re-targets a scenario; combine it with -scenario"))
		}
		if so.Thermal || so.Faults.Active() || so.Traffic != "" || so.SLONs != 0 {
			fail(fmt.Errorf("-thermal, -cooling, -faults, -fault-*, -traffic and -slo-ns overlay a scenario; combine them with -scenario"))
		}
	}

	if *scenarioName != "" {
		spec, err := scenario.ByName(*scenarioName)
		if err != nil {
			fail(err)
		}
		if *backendName != "" {
			spec = scenario.WithBackend(spec, *backendName)
		}
		f := *format
		if f == "" {
			f = "text"
		}
		sink, err := runner.SinkFor(f)
		if err != nil {
			fail(err)
		}
		res, err := scenario.Run(spec, so)
		if err != nil {
			fail(err)
		}
		if err := sink.Write(os.Stdout, res.Report()); err != nil {
			fail(err)
		}
		return
	}

	var w core.Workload
	switch *typ {
	case "ro":
		w.Type = gups.ReadOnly
	case "wo":
		w.Type = gups.WriteOnly
	case "rw":
		w.Type = gups.ReadModifyWrite
	default:
		fail(fmt.Errorf("unknown type %q", *typ))
	}
	switch *mode {
	case "random":
		w.Mode = gups.Random
	case "linear":
		w.Mode = gups.Linear
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	if *patName != "full" {
		p, err := workloads.ByName(*patName)
		if err != nil {
			fail(err)
		}
		w.Pattern = p
	}
	w.Size = *size
	w.Ports = *ports

	opts := experiments.Default()
	opts.Warmup, opts.Measure, opts.Seed = so.Warmup, so.Measure, so.Seed

	// Resolve the output sink before spending time simulating.
	var sink runner.Sink
	if *format != "" {
		var err error
		if sink, err = runner.SinkFor(*format); err != nil {
			fail(err)
		}
	}

	m, err := core.New(opts).Measure(w)
	if err != nil {
		fail(err)
	}

	if sink != nil {
		if err := sink.Write(os.Stdout, report(m, *typ, *mode, *patName)); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("workload:   %s %dB %s, %d ports, pattern %q\n",
		*typ, *size, *mode, *ports, *patName)
	fmt.Printf("bandwidth:  %.2f GB/s raw (%.2f GB/s data)\n", m.Perf.RawGBps, m.Perf.DataGBps)
	fmt.Printf("requests:   %.1f MRPS (%.1f read / %.1f write)\n",
		m.Perf.MRPS, m.Perf.ReadMRPS, m.Perf.WriteMRPS)
	if h := m.ReadLatency(); h.N() > 0 {
		q := h.Percentiles(50, 90, 99, 99.9)
		fmt.Printf("read lat:   avg %.0f ns, min %.0f, max %.0f (n=%d)\n",
			h.Mean(), h.Min(), h.Max(), h.N())
		fmt.Printf("read tail:  p50 %.0f, p90 %.0f, p99 %.0f, p99.9 %.0f ns\n", q[0], q[1], q[2], q[3])
	}
	if h := m.WriteLatency(); h.N() > 0 {
		q := h.Percentiles(50, 99)
		fmt.Printf("write lat:  avg %.0f ns, min %.0f, max %.0f (n=%d); p50 %.0f, p99 %.0f\n",
			h.Mean(), h.Min(), h.Max(), h.N(), q[0], q[1])
	}
	fmt.Println("thermal/power assessment (steady state, 200 s):")
	fmt.Printf("  %-5s %-12s %-12s %-12s %-10s %s\n",
		"cfg", "surface degC", "junction", "machine W", "cooling W", "status")
	for _, tp := range m.Thermal {
		status := "ok"
		if tp.ThermallyFailed {
			status = "THERMAL FAILURE (data loss; reset required)"
		}
		fmt.Printf("  %-5s %-12.1f %-12.1f %-12.1f %-10.2f %s\n",
			tp.Config.Name, tp.SurfaceC, tp.JunctionC, tp.MachineW, tp.CoolingW, status)
	}
	fmt.Printf("safe cooling configs: %v\n", m.SafeConfigs())
}
