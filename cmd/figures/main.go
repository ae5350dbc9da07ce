// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated stack, writing aligned-text, CSV and
// JSON outputs to a results directory.
//
// Usage:
//
//	figures [-out results] [-id figure7] [-quick] [-measure-us 800]
//	        [-warmup-us 150] [-seed 1] [-workers N] [-ext] [-list]
//	        [-progress] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	        [overlay flags]
//	figures -quick -serve-check http://127.0.0.1:8080 -id scn-uniform [overlay flags]
//
// Without -id it runs the full registry (Table I-III, Figure 3,
// Figures 6-18; -ext adds the extension, scenario and characterization
// families). Ctrl-C cancels the in-flight sweep cleanly.
//
// The overlay flags are the scenario run options shared with hmcsim
// (scenario.Options.BindFlags): -thermal, -cooling, -shards, -faults,
// -fault-retries, -fault-backoff-us, -fault-deadline-us, -traffic and
// -slo-ns. The scenario-backed experiments (scn-*, scenarios, sharded,
// ext-backends, ext-loadlat-*) run under them as given; ext-thermal-*
// always closes the loop, ext-fault-* always injects, ext-slo-* drops
// -traffic and -slo-ns, and the sharded library drops -thermal. The
// paper's figures ignore them. -serve-check replays one scn-*
// experiment through a running hmcsimd with the same overlays and
// diffs the server's report against the registry's own run.
//
// The profile flags capture the whole registry run: the CPU profile
// stops and both files are written after the last experiment
// completes, so `go tool pprof` sees every simulation kernel at its
// steady state. An interrupted or failed run finalizes the profiles
// for whatever did execute; a flag usage error writes nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hmcsim/internal/experiments"
	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
)

func main() {
	var opts experiments.Options
	opts.BindFlags(flag.CommandLine)
	flag.Uint64Var(&opts.Seed, "seed", 1, "random seed")
	flag.IntVar(&opts.Workers, "workers", 0, "concurrent simulations (0 = NumCPU)")
	out := flag.String("out", "results", "output directory")
	id := flag.String("id", "", "run a single experiment id (e.g. figure7); empty = all")
	quick := flag.Bool("quick", false, "use quick (low-fidelity) measurement windows")
	measureUs := flag.Int("measure-us", 0, "override measurement window in simulated microseconds")
	warmupUs := flag.Int("warmup-us", 0, "override warmup window in simulated microseconds")
	ext := flag.Bool("ext", false, "include the extension experiments (ablations, projections)")
	serveCheckURL := flag.String("serve-check", "", "replay a scn-* experiment through a running hmcsimd at this base URL and diff against the local run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	progress := flag.Bool("progress", false, "print per-cell sweep progress")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the registry run")
	memprofile := flag.String("memprofile", "", "write a heap profile after the registry completes")
	flag.Parse()

	registry := experiments.All
	if *ext {
		registry = experiments.AllWithExtensions
	}

	if *list {
		for _, e := range registry() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	// Ctrl-C cancels the worker pool; in-flight cells finish, queued
	// cells never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	windows := experiments.Default()
	if *quick {
		windows = experiments.Quick()
	}
	opts.Warmup, opts.Measure = windows.Warmup, windows.Measure
	if *measureUs > 0 {
		opts.Measure = sim.Duration(*measureUs) * sim.Microsecond
	}
	if *warmupUs > 0 {
		opts.Warmup = sim.Duration(*warmupUs) * sim.Microsecond
	}
	opts.Context = ctx
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  cell %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *serveCheckURL != "" {
		cid := *id
		if cid == "" {
			cid = "scn-uniform"
		}
		if err := serveCheck(strings.TrimRight(*serveCheckURL, "/"), cid, opts); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}

	todo := registry()
	if *id != "" {
		e, err := experiments.ByID(*id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment id %q\n", *id)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Profiles start only after flag validation, so a usage error
	// never truncates an existing profile. stopProfiles finalizes
	// both files; exits below route through it so an interrupted or
	// failed run still leaves valid (partial-run) profiles behind.
	// Both profile files are created before any profiling starts, so a
	// bad path fails here — not after minutes of simulation, and not
	// leaving the other profile unterminated.
	var cpuFile, memFile *os.File
	for _, p := range []struct {
		path string
		dst  **os.File
	}{{*cpuprofile, &cpuFile}, {*memprofile, &memFile}} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*p.dst = f
	}
	stopProfiles := func() {}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}
	if memFile != nil {
		cpuStop := stopProfiles
		stopProfiles = func() {
			cpuStop()
			defer memFile.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	fail := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	sinks := runner.Sinks()
	for _, e := range todo {
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "figures: interrupted")
				fail(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			fail(1)
		}
		var paths []string
		for _, s := range sinks {
			path := filepath.Join(*out, e.ID+"."+s.Ext())
			f, err := os.Create(path)
			if err == nil {
				err = s.Write(f, rep)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fail(1)
			}
			paths = append(paths, path)
		}
		fmt.Printf("%-10s %-55s %8s -> %s\n",
			e.ID, e.Title, time.Since(start).Round(time.Millisecond), strings.Join(paths, ", "))
	}
	stopProfiles()
}
