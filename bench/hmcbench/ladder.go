package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"hmcsim/internal/chain"
	"hmcsim/internal/experiments"
	"hmcsim/internal/fault"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/simcache"
	"hmcsim/internal/stats"
)

// perLayer are the metrics a traced run reports, in order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.event_ns", "ns"},
		{"sim.events_per_req.hmc", "events/req"},
		{"sim.events_per_req.ddr4", "events/req"},
		{"sim.events_per_req.chain", "events/req"},
		{"mem.hmc.ns_per_read", "ns"},
		{"mem.hmc.ns_per_write", "ns"},
		{"mem.ddr4.ns_per_read", "ns"},
		{"mem.chain.ns_per_read", "ns"},
		{"mem.throttle.ns_per_req", "ns"},
		{"fault.injector.ns_per_req", "ns"},
		{"scenario.driver.ns_per_req", "ns"},
		{"thermal.runtime.ns_per_req", "ns"},
		{"gups.ns_per_req", "ns"},
		{"stats.loghist_record_ns", "ns"},
		{"stats.summary_add_ns", "ns"},
		{"gups.monitor_record_ns", "ns"},
		{"scenario.report_us", "us"},
		{"runner.table_us", "us"},
		{"runner.csv_us", "us"},
		{"runner.json_us", "us"},
		{"simcache.key_us", "us"},
		{"simcache.hit_ns", "ns"},
		{"simcache.hit_ratio", "fraction"},
		{"simcache.coalesced", "count"},
		{"hmcsimd.hit_p50_us", "us"},
		{"hmcsimd.miss_p50_ms", "ms"},
		{"hmcsimd.http_overhead_ms", "ms"},
		{"scenario.retries_per_kreq", "retries/kreq"},
		{"trace_overhead_pct", "%"},
	}
	for _, e := range experiments.AllWithExtensions() {
		defs = append(defs, metricDef{"experiments." + e.ID + ".wall_ms", "ms"})
	}
	return defs
}

// ladderSize scales the ladder: simulated horizon per rung, repeats
// per rung (the median is reported) and micro-benchmark iterations.
type ladderSize struct {
	horizon sim.Duration
	reps    int
	micro   int
}

func (b *bench) ladderSize() ladderSize {
	if b.cfg.smoke {
		return ladderSize{horizon: 20 * sim.Microsecond, reps: 1, micro: 10_000}
	}
	return ladderSize{horizon: 2 * sim.Millisecond, reps: 5, micro: 2_000_000}
}

// ladder measures each layer on its own, adding one layer per rung on
// the hmc request path, then the telemetry, rendering, cache, service
// and registry layers. Each rung runs under a pprof "layer" label and
// a span, so a CPU profile and trace.json attribute host time per
// layer.
func (b *bench) ladder(ctx context.Context) (map[string]float64, error) {
	sz := b.ladderSize()
	m := map[string]float64{}
	root := b.tr.start("ladder", "", 0, 0)
	defer b.tr.finish(root)
	var err error
	cur := root // the running rung's span
	rung := func(layer string, f func() error) {
		if err != nil {
			return
		}
		pprof.Do(ctx, pprof.Labels("layer", layer), func(context.Context) {
			cur = b.tr.start("ladder."+layer, "", root, 0)
			err = f()
			b.tr.finish(cur)
		})
	}
	seed := b.cfg.seed

	rung("sim", func() error {
		m["sim.event_ns"] = medianOf(sz.reps, func() float64 { return eventNs(sz.micro) })
		return nil
	})
	// The hmc request path, one layer added per rung: bare adapter,
	// transparent throttle, zero-plan injector under it, then
	// scenario.Run's generic drivers (nine one-port tenants, the bare
	// rung's traffic; MaxRetries alone routes hmc onto the drivers
	// without a decorator), then Thermal on top. The rungs run
	// round-robin and a layer's cost is the median of its paired
	// differences, so host drift between rounds cancels.
	throttle := func(be mem.Backend) (mem.Backend, error) {
		return mem.NewThrottle(be, 1, nil, be.MinLatency()/2), nil
	}
	inject := func(be mem.Backend) (mem.Backend, error) {
		inj, err := fault.New(be, fault.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		return throttle(inj)
	}
	onHMC := func(wrap func(mem.Backend) (mem.Backend, error)) func() (float64, error) {
		return func() (float64, error) {
			be, err := hmcBackend()
			if err == nil && wrap != nil {
				be, err = wrap(be)
			}
			if err != nil {
				return 0, err
			}
			ns, ev := closedLoop(be, 9, false, 128, sz.horizon, seed)
			if wrap == nil {
				m["sim.events_per_req.hmc"] = ev
			}
			return ns, nil
		}
	}
	ladderSpec := scenario.Spec{Name: "ladder"}
	for i := 0; i < 9; i++ {
		ladderSpec.Tenants = append(ladderSpec.Tenants, scenario.Tenant{Name: fmt.Sprintf("p%d", i)})
	}
	driverOpts := scenario.Options{Seed: seed, Warmup: sz.horizon / 20, Measure: sz.horizon, Faults: scenario.Faults{MaxRetries: 1}}
	thermalOpts := driverOpts
	thermalOpts.Thermal = true
	path := []struct {
		layer string
		run   func() (float64, error)
		ns    []float64
	}{
		{layer: "mem.hmc", run: onHMC(nil)},
		{layer: "mem.throttle", run: onHMC(throttle)},
		{layer: "fault.injector", run: onHMC(inject)},
		{layer: "scenario.driver", run: func() (float64, error) { return runNs(ladderSpec, driverOpts) }},
		{layer: "thermal.runtime", run: func() (float64, error) { return runNs(ladderSpec, thermalOpts) }},
	}
	for r := 0; r < sz.reps; r++ {
		for i := range path {
			p := &path[i]
			rung(p.layer, func() error {
				ns, err := p.run()
				p.ns = append(p.ns, ns)
				return err
			})
		}
	}
	if err != nil {
		return nil, err
	}
	m["mem.hmc.ns_per_read"] = median(path[0].ns)
	m["mem.throttle.ns_per_req"] = pairedDelta(path[1].ns, path[0].ns)
	m["fault.injector.ns_per_req"] = pairedDelta(path[2].ns, path[1].ns)
	m["scenario.driver.ns_per_req"] = pairedDelta(path[3].ns, path[0].ns)
	m["thermal.runtime.ns_per_req"] = pairedDelta(path[4].ns, path[3].ns)
	rung("mem.hmc.write", func() error {
		m["mem.hmc.ns_per_write"], _, err = repeatLoop(sz, hmcBackend, 9, true, 128, seed)
		return err
	})
	rung("mem.ddr4", func() error {
		m["mem.ddr4.ns_per_read"], m["sim.events_per_req.ddr4"], err = repeatLoop(sz, func() (mem.Backend, error) {
			return mem.NewDDR(sim.NewEngine(), mem.DDRConfig{Channels: 1})
		}, 1, false, 64, seed)
		return err
	})
	rung("mem.chain", func() error {
		m["mem.chain.ns_per_read"], m["sim.events_per_req.chain"], err = repeatLoop(sz, func() (mem.Backend, error) {
			eng := sim.NewEngine()
			nw, err := chain.NewNetwork(eng, 4, chain.Chain, chain.DefaultParams())
			if err != nil {
				return nil, err
			}
			return mem.NewChain(eng, nw), nil
		}, 4, false, 128, seed)
		return err
	})
	rung("gups", func() error {
		var runErr error
		m["gups.ns_per_req"] = medianOf(sz.reps, func() float64 {
			t0 := time.Now()
			r, err := gups.Run(gups.Config{Seed: seed, Warmup: sz.horizon / 20, Measure: sz.horizon})
			if err != nil {
				runErr = err
				return 0
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(max(r.Reads+r.Writes, 1))
		})
		return runErr
	})
	rung("stats", func() error {
		m["stats.loghist_record_ns"], m["stats.summary_add_ns"], m["gups.monitor_record_ns"] = recordNs(sz)
		return nil
	})
	rung("scenario.report", func() error { return b.renderLadder(sz, m) })
	rung("simcache", func() error { return cacheLadder(sz, m) })
	rung("scenario.retries", func() error {
		spec, opts, err := scenarioLoad(wDriver, seed, b.cfg.smoke)
		if err != nil {
			return err
		}
		opts.Measure = sz.horizon
		res, err := scenario.Run(spec, opts)
		if err != nil {
			return err
		}
		m["scenario.retries_per_kreq"] = float64(res.Total.Retries) * 1e3 / float64(max(res.Total.Reads+res.Total.Writes, 1))
		return nil
	})
	rung("experiments", func() error {
		exps, _, err := b.figureInputs()
		if err != nil {
			return err
		}
		_, wall, err := b.pass(exps, b.figureOpts(), cur, 0)
		for id, ms := range wall {
			m["experiments."+id+".wall_ms"] = ms
		}
		return err
	})
	rung("hmcsimd", func() error { return b.serviceLadder(ctx, m, cur) })
	return m, err
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// hmcBackend is the cube and AC-510 controller behind mem.HMC, as the
// generic-driver path builds it.
func hmcBackend() (mem.Backend, error) {
	rig, err := gups.BuildRigPorts(gups.Config{Generation: hmc.HMC11}, nil)
	if err != nil {
		return nil, err
	}
	return rig.Backend, nil
}

// client is one closed-loop requester: it issues a random access,
// waits for it, and issues the next, respecting the port's admission.
type client struct {
	port           mem.Port
	rng            *sim.RNG
	mask, capacity uint64
	size           int
	write          bool
	addr           uint64
	done           mem.Done
	retry          func()
}

func (c *client) issue() {
	a := c.rng.Uint64() & c.mask
	if a >= c.capacity {
		a %= c.capacity
	}
	c.addr = a &^ uint64(c.size-1)
	c.try()
}

func (c *client) try() {
	if !c.port.CanIssue(c.addr) {
		c.port.WaitIssue(c.addr, c.retry)
		return
	}
	c.port.Submit(mem.Request{Addr: c.addr, Size: c.size, Write: c.write}, c.done)
}

// closedLoop drives each port's full hardware window of clients on be
// for the horizon and returns host ns and kernel events per completed
// access.
func closedLoop(be mem.Backend, ports int, write bool, size int, horizon sim.Duration, seed uint64) (ns, events float64) {
	window := be.Limits().ReadDepth
	if write {
		window = be.Limits().WriteDepth
	}
	var n uint64
	for p := 0; p < ports; p++ {
		port := be.Port(p)
		for w := 0; w < window; w++ {
			c := &client{port: port, rng: sim.NewRNG(gups.PortSeed(seed, p*window+w)), mask: be.CapMask(),
				capacity: be.CapacityBytes(), size: size, write: write}
			c.done = func(mem.Result) { n++; c.issue() }
			c.retry = c.try
			c.issue()
		}
	}
	eng := be.Engine()
	t0 := time.Now()
	eng.RunUntil(horizon)
	dt := time.Since(t0)
	n = max(n, 1)
	return float64(dt.Nanoseconds()) / float64(n), float64(eng.Processed()) / float64(n)
}

// repeatLoop is closedLoop on sz.reps freshly built backends: the
// median ns and the last run's events per access.
func repeatLoop(sz ladderSize, build func() (mem.Backend, error), ports int, write bool, size int, seed uint64) (ns, events float64, err error) {
	var nss []float64
	for i := 0; i < sz.reps; i++ {
		be, err := build()
		if err != nil {
			return 0, 0, err
		}
		var x float64
		x, events = closedLoop(be, ports, write, size, sz.horizon, seed)
		nss = append(nss, x)
	}
	return median(nss), events, nil
}

// runNs is host ns per measured completion of one scenario.Run.
func runNs(spec scenario.Spec, o scenario.Options) (float64, error) {
	t0 := time.Now()
	res, err := scenario.Run(spec, o)
	if err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(res.Total.Reads+res.Total.Writes, 1)), nil
}

// pairedDelta is the median of a[i]-b[i].
func pairedDelta(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// ticker reschedules itself: the bare kernel dispatch path.
type ticker struct{ left int }

func (t *ticker) Fire(e *sim.Engine) {
	if t.left > 0 {
		t.left--
		e.ScheduleHandler(sim.Nanosecond, t)
	}
}

func eventNs(n int) float64 {
	eng := sim.NewEngine()
	eng.ScheduleHandler(0, &ticker{left: n})
	t0 := time.Now()
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(max(eng.Processed(), 1))
}

// recordSink keeps the telemetry loops' results observable.
var recordSink uint64

// recordNs times the per-completion telemetry: one LogHist.Record,
// one Summary.Add, and one Monitor.Record (which does both per
// direction, plus the byte counters).
func recordNs(sz ladderSize) (hist, sum, mon float64) {
	lat := make([]int64, 4096)
	rng := sim.NewRNG(7)
	for i := range lat {
		lat[i] = 100 + int64(rng.Intn(20_000))
	}
	per := func(f func(i int)) float64 {
		return medianOf(sz.reps, func() float64 {
			t0 := time.Now()
			for i := 0; i < sz.micro; i++ {
				f(i)
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(sz.micro)
		})
	}
	var h stats.LogHist
	hist = per(func(i int) { h.Record(lat[i&4095]) })
	var s stats.Summary
	sum = per(func(i int) { s.Add(float64(lat[i&4095])) })
	mn := gups.NewMonitor()
	mon = per(func(i int) {
		mn.Record(i&1 == 1, mem.Result{Deliver: sim.Time(lat[i&4095]) * sim.Nanosecond}, 160, 128)
	})
	recordSink += h.N() + s.N() + mn.Reads
	return hist, sum, mon
}

// renderLadder times assembling a multi-tenant report and rendering it
// through the three runner sinks.
func (b *bench) renderLadder(sz ladderSize, m map[string]float64) error {
	spec, err := scenario.ByName("tenants-4")
	if err != nil {
		return err
	}
	res, err := scenario.Run(spec, scenario.Options{Seed: b.cfg.seed, Warmup: 10 * sim.Microsecond, Measure: 100 * sim.Microsecond, Tail: true})
	if err != nil {
		return err
	}
	k := max(sz.micro/10_000, 5)
	rep := res.Report()
	us := func(f func()) float64 {
		return medianOf(k, func() float64 {
			t0 := time.Now()
			f()
			return float64(time.Since(t0).Nanoseconds()) / 1e3
		})
	}
	m["scenario.report_us"] = us(func() { rep = res.Report() })
	m["runner.table_us"] = us(func() { _ = rep.Table() })
	m["runner.csv_us"] = us(func() { _ = rep.CSV() })
	var jerr error
	m["runner.json_us"] = us(func() { _, jerr = rep.JSON() })
	return jerr
}

// cacheLadder times deriving a cache key and a warm in-memory hit.
func cacheLadder(sz ladderSize, m map[string]float64) error {
	spec, err := scenario.ByName("tenants-4")
	if err != nil {
		return err
	}
	o := scenario.Options{Seed: 3, Warmup: 20 * sim.Microsecond, Measure: 200 * sim.Microsecond}
	k := max(sz.micro/1_000, 5)
	var key simcache.Key
	m["simcache.key_us"] = medianOf(k, func() float64 {
		t0 := time.Now()
		key = simcache.KeyOf(spec, o)
		return float64(time.Since(t0).Nanoseconds()) / 1e3
	})
	c, err := simcache.New(simcache.Config{})
	if err != nil {
		return err
	}
	c.Put(key, []byte("{}"))
	t0 := time.Now()
	for i := 0; i < sz.micro; i++ {
		if _, ok := c.Get(key); !ok {
			return fmt.Errorf("simcache: warm key missed")
		}
	}
	m["simcache.hit_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(sz.micro)
	return nil
}

// serviceLadder runs one short request round against a fresh hmcsimd
// and splits its latency into hits, misses and the HTTP share of a
// miss (miss p50 minus the in-process Run+JSON p50 of the same keys).
func (b *bench) serviceLadder(ctx context.Context, m map[string]float64, parent int) error {
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
	sh := serviceShape{seedsPerSpec: 5, requests: 1000, warmupUs: 20, measureUs: 200}
	if b.cfg.smoke {
		sh = serviceShape{seedsPerSpec: 1, requests: 50, warmupUs: 5, measureUs: 20}
	}
	keys := sh.keys(b.cfg.seed, 1_000)
	first := map[int][]byte{}
	res, _ := b.round(ctx, s, sh, keys, first, b.cfg.seed, 1_000, parent)
	var hit, miss, local []float64
	for _, q := range res {
		if !q.ok {
			return fmt.Errorf("hmcsimd ladder: request for key %d failed", q.key)
		}
		switch q.verdict {
		case "hit":
			hit = append(hit, q.ms)
		case "miss":
			miss = append(miss, q.ms)
		}
	}
	for k, body := range first {
		want, d, err := inProcess(sh, keys[k])
		if err != nil {
			return err
		}
		if want != string(body) {
			return fmt.Errorf("hmcsimd ladder: %s seed %d differs from the in-process run", keys[k].spec, keys[k].seed)
		}
		local = append(local, d.Seconds()*1e3)
	}
	hits, misses, coalesced, err := s.cacheStats(ctx)
	if err != nil {
		return err
	}
	m["hmcsimd.hit_p50_us"] = median(hit) * 1e3
	m["hmcsimd.miss_p50_ms"] = median(miss)
	m["hmcsimd.http_overhead_ms"] = median(miss) - median(local)
	m["simcache.hit_ratio"] = hits / max(hits+misses, 1)
	m["simcache.coalesced"] = coalesced
	return nil
}
