// Scenarios: the declarative workload layer. The paper characterizes
// HMC under uniform-random GUPS and linear streams; the scenario
// engine generalizes that taxonomy into production-style traffic
// specs — skewed popularity, hot working sets, mixed read/write
// ratios, open-loop arrival rates, and multi-tenant mixes — each a
// ten-line data literal compiled onto the same simulated stack.
//
// This walkthrough (1) lists the builtin library, (2) shows that the
// "uniform" scenario is exactly the paper's full-scale GUPS operating
// point, (3) contrasts injection disciplines, (4) runs one workload
// on all three memory backends — the paper's HMC-vs-DDR comparison as
// a one-field change — and (5) builds a custom multi-tenant spec from
// scratch.
package main

import (
	"fmt"
	"os"

	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

func main() {
	// Quick windows: enough simulated time for stable numbers while
	// keeping the walkthrough fast. Drop Warmup/Measure to use the
	// publication-fidelity defaults (150 us + 800 us).
	opts := scenario.Options{
		Warmup:  30 * sim.Microsecond,
		Measure: 100 * sim.Microsecond,
		Seed:    1,
	}

	// 1. The builtin library.
	fmt.Println("builtin scenario library:")
	for _, s := range scenario.Builtin() {
		fmt.Printf("  %-12s %s\n", s.Name, s.Description)
	}

	// 2. "uniform" is the paper's headline operating point: the same
	// nine-port rig every bandwidth figure uses, re-expressed as a
	// declarative spec. Its numbers match gups.Run byte for byte.
	uni := scenario.MustRun(must(scenario.ByName("uniform")), opts)
	fmt.Printf("\nuniform (the Figure 7 '16 vaults' ro point): %.2f GB/s raw, %.1f MRPS\n",
		uni.Total.RawGBps, uni.Total.MRPS)

	// 3. Injection disciplines: closed-loop saturates the tag pools;
	// open-loop paces a fixed arrival rate and measures unloaded
	// latency (the serving-system operating point).
	open := scenario.MustRun(must(scenario.ByName("open-loop")), opts)
	fmt.Printf("closed loop: %6.1f MRPS at %4.0f ns mean read latency\n",
		uni.Total.MRPS, uni.Total.ReadHistNs.Mean())
	fmt.Printf("open loop:   %6.1f MRPS at %4.0f ns mean read latency\n",
		open.Total.MRPS, open.Total.ReadHistNs.Mean())

	// 4. The backend axis: the same zipfian workload on one HMC cube,
	// one DDR4-2400 channel, and a four-cube chain. Identical tenant
	// drivers, identical windows — the paper's side-by-side
	// methodology as a one-field change (internal/mem).
	fmt.Println("\nzipfian reads across memory backends:")
	zipf := must(scenario.ByName("zipfian"))
	for _, backend := range []string{"hmc", "ddr4", "chain"} {
		r := scenario.MustRun(scenario.WithBackend(zipf, backend), opts)
		fmt.Printf("  %-6s %6.2f GB/s data, read lat avg %5.0f ns\n",
			backend, r.Total.DataGBps, r.Total.ReadHistNs.Mean())
	}

	// 5. A custom spec: a latency-sensitive zipfian cache sharing the
	// cube with a background bulk writer, the cache confined to half
	// the vaults to cap interference.
	custom := scenario.Spec{
		Name:        "cache-vs-writer",
		Description: "zipfian cache (8 vaults) vs background bulk writer",
		Tenants: []scenario.Tenant{
			{
				Name: "cache", Ports: 4, Pattern: "8 vaults",
				Access: scenario.Access{Kind: "zipfian", ZipfTheta: 0.9},
			},
			{
				Name: "writer", Ports: 2, Mix: "wo",
				Inject: scenario.Injection{Outstanding: 8},
			},
		},
	}
	res, err := scenario.Run(custom, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
	fmt.Println()
	sink, _ := runner.SinkFor("text")
	if err := sink.Write(os.Stdout, res.Report()); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func must(s scenario.Spec, err error) scenario.Spec {
	if err != nil {
		panic(err)
	}
	return s
}
