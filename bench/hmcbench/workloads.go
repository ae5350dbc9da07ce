package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hmcsim/internal/experiments"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// outcome is one workload run's measurements.
type outcome struct {
	setup []float64 // seconds per set-up probe
	rates []float64 // work items per host-second, one per timed op or round
	lat   []float64 // host milliseconds per op
	// bestMs and bestRate are the reported latency and throughput: the
	// run's best observed op (see runOne).
	bestMs, bestRate float64
	// tracedMs/plainMs split op times by tracing state in a traced run.
	tracedMs, plainMs []float64
	attempted, failed int
	// mismatch marks a failed check outside the timed ops.
	mismatch bool
	extra    map[string]float64
}

// tally books one op and returns its time in ms for the loop. An
// untimed op only records a mismatch; a timed op is attempted, failed
// unless ok, and on success passes its samples to record.
func (o *outcome) tally(ok, timed bool, dt time.Duration, record func()) float64 {
	if !timed {
		o.mismatch = o.mismatch || !ok
		return 0
	}
	o.attempted++
	if ok {
		record()
	} else {
		o.failed++
	}
	return dt.Seconds() * 1e3
}

func (o *outcome) traceOverheadPct() float64 {
	plain := median(o.plainMs)
	if plain == 0 || len(o.tracedMs) == 0 {
		return 0
	}
	return (median(o.tracedMs) - plain) / plain * 100
}

// opsPerSecond sizes each workload's run from -seconds: the number of
// timed ops is seconds × this rate, so it is fixed for a given
// -seconds and the best op is always taken over the same number of
// samples, however fast the build is. The rates fit a whole run (set-up
// probes and the untimed op included) into about -seconds on the 2-vCPU
// Xeon VM described in README.md.
var opsPerSecond = map[string]float64{wGUPS: 4, wDriver: 4, wFigures: 0.15, wService: 1.2}

// timedOps is how many timed ops a run of w makes (at least 2).
func (b *bench) timedOps(w string) int {
	if b.cfg.smoke {
		return 2
	}
	return max(2, int(math.Ceil(float64(b.cfg.seconds)*opsPerSecond[w])))
}

// loop runs op once untimed (unless smoke), then n times timed,
// alternating tracing in a traced run so both halves share the same
// conditions. Between ops it runs the set-up probes, spread over the
// run so setup_s samples the same host conditions as the ops.
func (b *bench) loop(o *outcome, n int, op func(i int, timed bool) (ms float64), probe func() (time.Duration, error)) error {
	probes := setupProbes
	if b.cfg.smoke {
		probes = 3
	}
	sample := func(due int) error {
		for len(o.setup) < min(due, probes) {
			// Finish any collection the op left running, so the probe
			// does not share the CPUs with this process's GC.
			runtime.GC()
			d, err := probe()
			if err != nil {
				return err
			}
			o.setup = append(o.setup, d.Seconds())
		}
		return nil
	}
	if !b.cfg.smoke {
		b.tr.setOn(false)
		op(-1, false)
	}
	for i := 0; i < n; i++ {
		traced := b.cfg.trace && i%2 == 1
		b.tr.setOn(traced)
		ms := op(i, true)
		b.tr.setOn(false)
		if traced {
			o.tracedMs = append(o.tracedMs, ms)
		} else {
			o.plainMs = append(o.plainMs, ms)
			o.lat = append(o.lat, ms)
		}
		if err := sample(1 + (probes-1)*i/n); err != nil {
			return err
		}
	}
	return sample(probes)
}

// measure runs one workload.
func (b *bench) measure(ctx context.Context, w string) (*outcome, error) {
	o := &outcome{extra: map[string]float64{}}
	var err error
	switch w {
	case wService:
		err = b.runService(ctx, o)
	case wFigures:
		err = b.runFigures(ctx, o)
	default:
		err = b.runScenario(ctx, w, o)
	}
	return o, err
}

// setupProbes is how many times a run measures set-up; setup_s is the
// median.
const setupProbes = 21

// probe times one child of this binary from exec to "ready": process
// start plus the workload's set-up (specs resolved, references loaded).
func (b *bench) probe(ctx context.Context, w string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-seed", fmt.Sprint(b.cfg.seed), "-goldens", b.cfg.goldens, "-digests", b.cfg.digests}
	if b.cfg.smoke {
		args = append(args, "-smoke")
	}
	t0 := time.Now()
	cmd := b.procs.command(ctx, exe, args...)
	cmd.Env = append(os.Environ(), readyEnv+"="+w)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := b.procs.start(cmd); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := b.procs.wait(cmd)
	if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
		return 0, fmt.Errorf("set-up probe for %s failed (%q, %v)", w, line, werr)
	}
	return d, nil
}

// prepare is a workload's set-up, shared by the probes and the
// measuring process: resolve what it runs and load its references.
func (b *bench) prepare(w string) error {
	switch w {
	case wGUPS, wDriver:
		_, _, _, err := b.scenarioInputs(w)
		return err
	case wFigures:
		_, _, err := b.figureInputs()
		return err
	}
	return fmt.Errorf("workload %s has no in-process set-up", w)
}

// scenarioLoad returns the spec and options a scenario workload runs.
func scenarioLoad(w string, seed uint64, smoke bool) (scenario.Spec, scenario.Options, error) {
	o := scenario.Options{Seed: seed, Warmup: 30 * sim.Microsecond}
	name := "uniform"
	switch w {
	case wGUPS:
		o.Measure = 2 * sim.Millisecond
	case wDriver:
		name = "mixed-rw"
		o.Measure = 8 * sim.Millisecond
		o.Thermal, o.Cooling = true, "Cfg2"
		o.Faults = scenario.Faults{Plan: "rate=0.001", MaxRetries: 3}
	default:
		return scenario.Spec{}, o, fmt.Errorf("%s is not a scenario workload", w)
	}
	if smoke {
		o.Warmup, o.Measure = 5*sim.Microsecond, 50*sim.Microsecond
	}
	spec, err := scenario.ByName(name)
	return spec, o, err
}

// digestKey names a workload's entry in the digests file.
func digestKey(w string, smoke bool) string {
	if smoke {
		return w + "/smoke"
	}
	return w
}

// scenarioInputs resolves a scenario workload and, at seed 1, the
// committed digest of its report ("" at other seeds, where the first
// op is the reference).
func (b *bench) scenarioInputs(w string) (spec scenario.Spec, opts scenario.Options, digest string, err error) {
	if spec, opts, err = scenarioLoad(w, b.cfg.seed, b.cfg.smoke); err != nil {
		return spec, opts, "", err
	}
	if err := spec.Validate(); err != nil {
		return spec, opts, "", err
	}
	if b.cfg.seed != 1 {
		return spec, opts, "", nil
	}
	raw, err := os.ReadFile(b.cfg.digests)
	if err != nil {
		return spec, opts, "", err
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		return spec, opts, "", fmt.Errorf("%s: %w", b.cfg.digests, err)
	}
	key := digestKey(w, b.cfg.smoke)
	if digest = m[key]; digest == "" {
		return spec, opts, "", fmt.Errorf("%s has no digest for %s", b.cfg.digests, key)
	}
	return spec, opts, digest, nil
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runScenario times scenario.Run on gups-hmc or driver-mix-hmc. The
// work item is a simulated request completed in the measured window.
func (b *bench) runScenario(ctx context.Context, w string, o *outcome) error {
	spec, opts, ref, err := b.scenarioInputs(w)
	if err != nil {
		return err
	}
	var allocMB, rawGBps, retries, completions []float64
	err = b.loop(o, b.timedOps(w), func(i int, timed bool) float64 {
		root := b.tr.start("op", w, 0, i)
		defer b.tr.finish(root)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := b.tr.start("scenario.Run", w, root, i)
		t0 := time.Now()
		res, err := scenario.Run(spec, opts)
		dt := time.Since(t0)
		b.tr.finish(sp)
		runtime.ReadMemStats(&m1)
		ok := err == nil
		if ok {
			sp = b.tr.start("runner.Report.Table", w, root, i)
			got := digestOf(res.Report().Table())
			b.tr.finish(sp)
			if ref == "" {
				ref = got
			}
			ok = got == ref
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "hmcbench: %s op %d: output differs from its reference (err %v)\n", w, i, err)
		}
		return o.tally(ok, timed, dt, func() {
			n := float64(res.Total.Reads + res.Total.Writes)
			o.rates = append(o.rates, n/dt.Seconds())
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			rawGBps = append(rawGBps, res.Total.RawGBps)
			retries = append(retries, float64(res.Total.Retries))
			completions = append(completions, n)
		})
	}, func() (time.Duration, error) { return b.probe(ctx, w) })
	if err != nil {
		return err
	}
	o.bestMs, o.bestRate = summarize("", o.lat).Min, summarize("", o.rates).Max
	o.extra["alloc_mb"] = median(allocMB)
	o.extra["sim_mreq_per_s"] = median(o.rates) / 1e6
	o.extra["completions_per_op"] = median(completions)
	o.extra["retries_per_op"] = median(retries)
	if w == wGUPS {
		// The paper's full-scale ro anchor (gups/calibrate_test.go).
		o.extra["paper_err_pct"] = abs(median(rawGBps)-21.5) / 21.5 * 100
	}
	return nil
}

// smokeExperiments are the cheap registry entries a smoke run checks.
var smokeExperiments = []string{"figure15", "scn-burst", "ext-slo-ddr4"}

// figureInputs resolves the registry and, at seed 1, loads the txt
// and csv golden of every experiment it runs.
func (b *bench) figureInputs() ([]experiments.Experiment, map[string]string, error) {
	exps := experiments.AllWithExtensions()
	if b.cfg.smoke {
		var keep []experiments.Experiment
		for _, e := range exps {
			if contains(smokeExperiments, e.ID) {
				keep = append(keep, e)
			}
		}
		exps = keep
	}
	refs := map[string]string{}
	if b.cfg.seed == 1 {
		for _, e := range exps {
			for _, ext := range []string{".txt", ".csv"} {
				raw, err := os.ReadFile(filepath.Join(b.cfg.goldens, e.ID+ext))
				if err != nil {
					return nil, nil, err
				}
				refs[e.ID+ext] = string(raw)
			}
		}
	}
	return exps, refs, nil
}

// figureOpts are the registry options of figures-quick.
func (b *bench) figureOpts() experiments.Options {
	o := experiments.Quick()
	o.Seed = b.cfg.seed
	o.Workers = runtime.NumCPU()
	return o
}

// pass runs every experiment once, rendering its text and CSV the way
// cmd/figures does. It returns the outputs keyed like the goldens and
// each experiment's wall time.
func (b *bench) pass(exps []experiments.Experiment, opts experiments.Options, parent, req int) (map[string]string, map[string]float64, error) {
	out := map[string]string{}
	wall := map[string]float64{}
	for _, e := range exps {
		sp := b.tr.start("experiments.Run", e.ID, parent, req)
		t0 := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			b.tr.finish(sp)
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		r := b.tr.start("runner.Report.Table", e.ID, sp, req)
		out[e.ID+".txt"] = rep.Table()
		b.tr.finish(r)
		r = b.tr.start("runner.Report.CSV", e.ID, sp, req)
		out[e.ID+".csv"] = rep.CSV()
		b.tr.finish(r)
		wall[e.ID] = time.Since(t0).Seconds() * 1e3
		b.tr.finish(sp)
	}
	return out, wall, nil
}

// runFigures times full registry passes and byte-compares every
// report with its golden (or, off seed 1, with the first pass). The
// op is a pass; the work item is an experiment.
func (b *bench) runFigures(ctx context.Context, o *outcome) error {
	exps, refs, err := b.figureInputs()
	if err != nil {
		return err
	}
	opts := b.figureOpts()
	var allocMB []float64
	best := map[string]float64{} // each experiment's fastest timed run
	err = b.loop(o, b.timedOps(wFigures), func(i int, timed bool) float64 {
		root := b.tr.start("pass", wFigures, 0, i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, wall, err := b.pass(exps, opts, root, i)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.tr.finish(root)
		ok := err == nil
		if ok {
			if len(refs) == 0 {
				refs = out
			}
			for k, want := range refs {
				if out[k] != want {
					fmt.Fprintf(os.Stderr, "hmcbench: %s pass %d: %s differs from its reference\n", wFigures, i, k)
					ok = false
				}
			}
		} else {
			fmt.Fprintf(os.Stderr, "hmcbench: %s pass %d: %v\n", wFigures, i, err)
		}
		return o.tally(ok, timed, dt, func() {
			o.rates = append(o.rates, float64(len(exps))/dt.Seconds())
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			for id, ms := range wall {
				if v, seen := best[id]; !seen || ms < v {
					best[id] = ms
				}
			}
		})
	}, func() (time.Duration, error) { return b.probe(ctx, wFigures) })
	if err != nil {
		return err
	}
	// A pass takes seconds, so a run holds only a few; the reported pass
	// time is the sum of each experiment's fastest run over the same
	// fixed number of passes.
	for _, ms := range best {
		o.bestMs += ms
	}
	if o.bestMs > 0 {
		o.bestRate = float64(len(exps)) / (o.bestMs / 1e3)
	}
	o.extra["alloc_mb"] = median(allocMB)
	o.extra["wall_s"] = median(o.lat) / 1e3
	return nil
}

// serviceSpecs are the single-engine library specs service-mix asks
// hmcsimd to run.
var serviceSpecs = []string{"uniform", "zipfian", "mixed-rw", "tenants-4", "chain-4", "uniform-ddr4", "tenants-4-ddr4", "burst"}

// serviceShape sizes one request round: seedsPerSpec keys per spec,
// requests drawn from them, and the simulated windows per run.
type serviceShape struct {
	seedsPerSpec, requests int
	warmupUs, measureUs    float64
}

func (b *bench) serviceShape() serviceShape {
	if b.cfg.smoke {
		return serviceShape{seedsPerSpec: 2, requests: 100, warmupUs: 5, measureUs: 20}
	}
	// 40 keys behind 2 000 requests: about 2 % of requests are cold
	// misses, so hits set the median and simulate-on-miss the p99. Short
	// rounds give a run dozens of them to pick its best from.
	return serviceShape{seedsPerSpec: 5, requests: 2000, warmupUs: 20, measureUs: 200}
}

// serviceKey is one distinct request: a spec at one seed.
type serviceKey struct {
	spec string
	seed uint64
	body []byte
}

// keys are round r's distinct requests; every round has fresh seeds,
// so each starts with the same share of cold keys.
func (sh serviceShape) keys(seed uint64, round int) []serviceKey {
	var ks []serviceKey
	for si, name := range serviceSpecs {
		for j := 0; j < sh.seedsPerSpec; j++ {
			s := seed*1_000_003 + uint64(round)*10_007 + uint64(si*sh.seedsPerSpec+j)
			body, _ := json.Marshal(map[string]any{"name": name, "options": map[string]any{
				"warmup_us": sh.warmupUs, "measure_us": sh.measureUs, "seed": s}})
			ks = append(ks, serviceKey{spec: name, seed: s, body: body})
		}
	}
	return ks
}

// reqResult is one HTTP exchange.
type reqResult struct {
	key     int
	ms      float64
	verdict string
	ok      bool
}

// round sends sh.requests seeded draws over keys from two keep-alive
// clients and checks each 200 body against the first seen for its key.
func (b *bench) round(ctx context.Context, s *server, sh serviceShape, keys []serviceKey, first map[int][]byte, seed uint64, round, parent int) ([]reqResult, time.Duration) {
	rng := sim.NewRNG(seed*7919 + uint64(round) + 0x5e41)
	picks := make([]int, sh.requests)
	for i := range picks {
		picks[i] = rng.Intn(len(keys))
	}
	const clients = 2
	results := make([]reqResult, len(picks))
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(picks); i += clients {
				k := picks[i]
				sp := b.tr.start("http.POST /v1/run", keys[k].spec, parent, i)
				t := time.Now()
				code, verdict, body, err := s.post(ctx, keys[k].body)
				ms := time.Since(t).Seconds() * 1e3
				b.tr.finish(sp)
				ok := err == nil && code == http.StatusOK
				if ok {
					mu.Lock()
					if want, seen := first[k]; !seen {
						first[k] = body
					} else if string(want) != string(body) {
						ok = false
					}
					mu.Unlock()
				}
				if !ok {
					fmt.Fprintf(os.Stderr, "hmcbench: request %d (%s seed %d): status %d err %v\n", i, keys[k].spec, keys[k].seed, code, err)
				}
				results[i] = reqResult{key: k, ms: ms, verdict: verdict, ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return results, time.Since(t0)
}

// inProcess runs a key in this process and renders the body the
// server should have returned.
func inProcess(sh serviceShape, k serviceKey) (string, time.Duration, error) {
	spec, err := scenario.ByName(k.spec)
	if err != nil {
		return "", 0, err
	}
	o := scenario.Options{Seed: k.seed,
		Warmup:  sim.Duration(sh.warmupUs * float64(sim.Microsecond)),
		Measure: sim.Duration(sh.measureUs * float64(sim.Microsecond))}
	t0 := time.Now()
	res, err := scenario.Run(spec, o)
	if err != nil {
		return "", 0, err
	}
	js, err := res.Report().JSON()
	return js, time.Since(t0), err
}

// runService times service-mix on one spawned hmcsimd: one untimed
// round, then timed rounds, with the set-up probes starting and
// stopping a second server between rounds. The op is a round; the work
// item is a response.
func (b *bench) runService(ctx context.Context, o *outcome) error {
	bin, cleanup, err := b.buildServer(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	s, _, err := b.startServer(ctx, bin)
	if err != nil {
		return err
	}
	defer s.stop()
	// A probe starts a second server between rounds and stops it.
	probe := func() (time.Duration, error) {
		srv, d, err := b.startServer(ctx, bin)
		if err != nil {
			return 0, err
		}
		if err := srv.stop(); err != nil {
			return 0, fmt.Errorf("stop hmcsimd: %w", err)
		}
		return d, nil
	}
	sh := b.serviceShape()
	type roundRec struct {
		keys          []serviceKey
		first         map[int][]byte
		res           []reqResult
		timed, traced bool
	}
	var rounds []roundRec
	err = b.loop(o, b.timedOps(wService), func(i int, timed bool) float64 {
		r := roundRec{keys: sh.keys(b.cfg.seed, i+1), first: map[int][]byte{}, timed: timed, traced: b.tr.on.Load()}
		root := b.tr.start("round", wService, 0, i)
		var dur time.Duration
		r.res, dur = b.round(ctx, s, sh, r.keys, r.first, b.cfg.seed, i+1, root)
		b.tr.finish(root)
		rounds = append(rounds, r)
		if !timed {
			return 0
		}
		for _, q := range r.res {
			o.attempted++
			if !q.ok {
				o.failed++
			}
		}
		if !r.traced {
			o.rates = append(o.rates, float64(len(r.res))/dur.Seconds())
		}
		return dur.Seconds() * 1e3
	}, probe)
	if err != nil {
		return err
	}
	// The loop recorded round times; a round's latency sample is its
	// median request, and all requests are kept on record too.
	o.lat = nil
	var all []float64
	for _, r := range rounds {
		if !r.timed || r.traced {
			continue
		}
		var ms []float64
		for _, q := range r.res {
			ms = append(ms, q.ms)
		}
		o.lat = append(o.lat, median(ms))
		all = append(all, ms...)
	}
	o.bestMs, o.bestRate = summarize("", o.lat).Min, summarize("", o.rates).Max
	o.extra["request_p50_ms"] = percentile(all, 50)
	o.extra["request_p99_ms"] = percentile(all, 99)
	// After timing: one key per round, rotating through the specs, must
	// match an in-process run of the same spec and seed; a mismatch
	// fails every timed request for that key.
	for ri, r := range rounds {
		k := ri % len(serviceSpecs) * sh.seedsPerSpec
		body, seen := r.first[k]
		if !seen {
			continue
		}
		want, _, err := inProcess(sh, r.keys[k])
		if err == nil && want == string(body) {
			continue
		}
		fmt.Fprintf(os.Stderr, "hmcbench: %s seed %d: server body differs from the in-process run (err %v)\n", r.keys[k].spec, r.keys[k].seed, err)
		o.mismatch = true
		for _, q := range r.res {
			if r.timed && q.key == k && q.ok {
				o.failed++
			}
		}
	}
	return nil
}

// updateDigests rewrites the seed-1 report digests of both scenario
// workloads, full size and smoke size.
func (b *bench) updateDigests() error {
	if b.cfg.seed != 1 {
		return fmt.Errorf("digests are recorded at seed 1")
	}
	m := map[string]string{}
	for _, smoke := range []bool{false, true} {
		for _, w := range []string{wGUPS, wDriver} {
			spec, opts, err := scenarioLoad(w, 1, smoke)
			if err != nil {
				return err
			}
			res, err := scenario.Run(spec, opts)
			if err != nil {
				return err
			}
			m[digestKey(w, smoke)] = digestOf(res.Report().Table())
		}
	}
	if err := writeJSON(b.cfg.digests, m); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "# wrote %s\n", b.cfg.digests)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
