// Command gups is the raw traffic-generator tool: the software face
// of the paper's GUPS firmware. It exposes the mask/anti-mask
// registers directly (hex), supports full-scale, small-scale, stream
// and sweep modes, and can verify data integrity end to end.
//
// Examples:
//
//	gups -type ro -size 128                        # full-scale, 16 vaults
//	gups -type ro -zeromask 0x7f80                 # bank 0 of vault 0
//	gups -stream 28 -size 128                      # low-load latency burst
//	gups -stream 24 -size 64 -verify               # data-integrity check
//	gups -sweep -format json                       # all sizes, in parallel
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hmcsim/internal/gups"
	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
)

// fail prints err under the command's name once: errors from the gups
// package already start with it.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "gups: ") {
		msg = "gups: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

func parseHex(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		fail(fmt.Errorf("bad mask %q: %v", s, err))
	}
	return v
}

func main() {
	typ := flag.String("type", "ro", "request mix: ro, wo or rw")
	size := flag.Int("size", 128, "request payload bytes")
	mode := flag.String("mode", "random", "random or linear addressing")
	zeroMask := flag.String("zeromask", "0", "address bits forced to zero (hex)")
	oneMask := flag.String("onemask", "0", "address bits forced to one (hex)")
	ports := flag.Int("ports", 9, "active ports (small-scale GUPS uses fewer)")
	measureUs := flag.Int("measure-us", 800, "measurement window, simulated microseconds")
	seed := flag.Uint64("seed", 1, "random seed")
	stream := flag.Int("stream", 0, "stream GUPS: burst of N reads (0 = full/small-scale)")
	verify := flag.Bool("verify", false, "stream mode: verify data integrity of writes+reads")
	sweep := flag.Bool("sweep", false, "run every request size concurrently and tabulate")
	workers := flag.Int("workers", 0, "sweep mode: concurrent simulations (0 = NumCPU)")
	format := flag.String("format", "text", "sweep mode output: text, csv or json")
	flag.Parse()

	if *stream > 0 {
		res, err := gups.RunStream(gups.StreamConfig{
			N: *stream, Size: *size, Seed: *seed, Verify: *verify,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("stream of %d x %dB reads:\n", *stream, *size)
		fmt.Printf("  latency avg %.0f ns, min %.0f, max %.0f\n",
			res.LatencyNs.Mean(), res.LatencyNs.Min(), res.LatencyNs.Max())
		if *verify {
			if res.Verified {
				fmt.Println("  data integrity: OK (all responses matched written data)")
			} else {
				fmt.Printf("  data integrity: FAILED (%d mismatches)\n", res.VerifyErrors)
				os.Exit(1)
			}
		}
		return
	}

	var ty gups.ReqType
	switch *typ {
	case "ro":
		ty = gups.ReadOnly
	case "wo":
		ty = gups.WriteOnly
	case "rw":
		ty = gups.ReadModifyWrite
	default:
		fail(fmt.Errorf("unknown type %q", *typ))
	}
	md := gups.Random
	if *mode == "linear" {
		md = gups.Linear
	} else if *mode != "random" {
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	base := gups.Config{
		Type:     ty,
		Size:     *size,
		Mode:     md,
		ZeroMask: parseHex(*zeroMask),
		OneMask:  parseHex(*oneMask),
		Ports:    *ports,
		Measure:  sim.Duration(*measureUs) * sim.Microsecond,
		Seed:     *seed,
	}

	if *sweep {
		runSweep(base, *workers, *format)
		return
	}

	res, err := gups.Run(base)
	if err != nil {
		fail(err)
	}
	fmt.Println(res)
}

// runSweep fans one cell per request size out through the shared
// worker pool and renders the results with the runner's sinks.
func runSweep(base gups.Config, workers int, format string) {
	sink, err := runner.SinkFor(format)
	if err != nil {
		fail(err)
	}
	sizes := []int{16, 32, 48, 64, 80, 96, 112, 128}
	cells, err := runner.Map(context.Background(), runner.Config{Workers: workers}, len(sizes),
		func(_ context.Context, i int) (gups.Result, error) {
			cfg := base
			cfg.Size = sizes[i]
			// Each cell draws from its own decorrelated stream; the
			// sweep stays reproducible from the one user-facing seed.
			cfg.Seed = runner.CellSeed(base.Seed, i)
			return gups.Run(cfg)
		})
	if err != nil {
		fail(err)
	}
	g := runner.Grid{
		Title: fmt.Sprintf("%v bandwidth/latency vs request size", base.Type),
		Cols:  []string{"Size (B)", "Raw GB/s", "Data GB/s", "MRPS", "Read lat avg (ns)"},
	}
	for i, r := range cells {
		g.AddRow(fmt.Sprint(sizes[i]), fmt.Sprintf("%.2f", r.RawGBps),
			fmt.Sprintf("%.2f", r.DataGBps), fmt.Sprintf("%.1f", r.MRPS),
			fmt.Sprintf("%.0f", r.ReadHistNs.Mean()))
	}
	rep := runner.Report{ID: "sweep", Title: "Request-size sweep", Grids: []runner.Grid{g}}
	if err := sink.Write(os.Stdout, rep); err != nil {
		fail(err)
	}
}
