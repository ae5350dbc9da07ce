package scenario

import (
	"fmt"

	"hmcsim/internal/runner"
	"hmcsim/internal/stats"
)

// describeTenant renders the tenant's traffic shape for reports.
func describeTenant(t Tenant) (mix, access, inject string) {
	t = t.withDefaults()
	mix = t.Mix
	if t.Mix == "mix" {
		mix = fmt.Sprintf("mix %.0f/%.0f", t.ReadFraction*100, (1-t.ReadFraction)*100)
	}
	access = t.Access.Kind
	if t.Pattern != "" && t.Pattern != "full" {
		access += " @ " + t.Pattern
	}
	inject = "closed"
	switch t.Inject.Mode {
	case "open":
		inject = fmt.Sprintf("open %.1fM/s", t.Inject.RateMRPS)
	case "phased":
		// The per-port cycle-average rate, so the column stays
		// comparable with the fixed open-loop rendering.
		inject = fmt.Sprintf("phased x%d avg %.1fM/s", len(t.Inject.Phases), t.OfferedMRPS()/float64(t.Ports))
	case "burst":
		inject = fmt.Sprintf("burst %.1f/%.1fM/s", t.Inject.BurstMRPS, t.Inject.IdleMRPS)
	default:
		if t.Inject.Outstanding > 0 {
			inject = fmt.Sprintf("closed w=%d", t.Inject.Outstanding)
		}
	}
	if t.Start != 0 || t.Stop != 0 {
		if t.Stop != 0 {
			inject += fmt.Sprintf(" [%.0f-%.0fus]", t.Start.Microseconds(), t.Stop.Microseconds())
		} else {
			inject += fmt.Sprintf(" [%.0fus+]", t.Start.Microseconds())
		}
	}
	return mix, access, inject
}

// tailGrid renders the tail-latency percentile table: one row per
// tenant and direction (plus totals), percentiles from the latency
// records' log buckets, mean/max from their exact moments.
func (r Result) tailGrid() runner.Grid {
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	g := runner.Grid{
		Title: "Tail latency percentiles (ns, measured window)",
		Cols:  []string{"Tenant", "Op", "n", "p50", "p90", "p99", "p99.9", "mean", "max"},
	}
	addRows := func(name string, ts TenantStats) {
		if h := ts.ReadHistNs; h.N() > 0 {
			q := h.Percentiles(50, 90, 99, 99.9)
			g.AddRow(name, "read", fmt.Sprintf("%d", h.N()),
				f0(q[0]), f0(q[1]), f0(q[2]), f0(q[3]), f0(h.Mean()), f0(h.Max()))
		}
		if h := ts.WriteHistNs; h.N() > 0 {
			q := h.Percentiles(50, 90, 99, 99.9)
			g.AddRow(name, "write", fmt.Sprintf("%d", h.N()),
				f0(q[0]), f0(q[1]), f0(q[2]), f0(q[3]), f0(h.Mean()), f0(h.Max()))
		}
	}
	for _, ts := range r.Tenants {
		addRows(ts.Name, ts)
	}
	if len(r.Tenants) > 1 {
		addRows("total", r.Total)
	}
	return g
}

// degraded reports whether any resilience counter is nonzero: errors
// must never silently vanish from a report, even when fault injection
// was off (a failed cube or shutdown zone still errors).
func (r Result) degraded() bool {
	c := r.Total
	return c.Errors+c.Retries+c.Abandoned+c.Failed != 0
}

// resilienceGrid renders the degradation accounting: per tenant, the
// errored completions, retry/abandon activity, goodput and the
// availability line the tentpole promises.
func (r Result) resilienceGrid() runner.Grid {
	g := runner.Grid{
		Title: "Resilience (measured window)",
		Cols: []string{"Tenant", "Errors", "Retries", "Abandoned", "Failed",
			"Goodput MRPS", "Avail %"},
	}
	addRow := func(name string, ts TenantStats) {
		g.AddRow(name,
			fmt.Sprintf("%d", ts.Errors), fmt.Sprintf("%d", ts.Retries),
			fmt.Sprintf("%d", ts.Abandoned), fmt.Sprintf("%d", ts.Failed),
			fmt.Sprintf("%.1f", ts.GoodputMRPS),
			fmt.Sprintf("%.2f", ts.Availability()*100))
	}
	for _, ts := range r.Tenants {
		addRow(ts.Name, ts)
	}
	if len(r.Tenants) > 1 {
		addRow("total", r.Total)
	}
	return g
}

// sloGrid renders the QoS/SLO accounting: for every tenant with a
// latency target, the share of measured successful completions at or
// under it (from the log-bucketed histograms, so "met" resolves at
// bucket granularity) plus goodput and p99, and one aggregate row per
// class that spans multiple tenants.
func (r Result) sloGrid() runner.Grid {
	g := runner.Grid{
		Title: "QoS / SLO (measured window)",
		Cols:  []string{"Class", "Tenant", "Target ns", "n", "Met %", "Goodput MRPS", "p99 ns"},
	}
	row := func(class, tenant, target string, n, met uint64, goodput float64, h *stats.LogHist) {
		metPct, p99 := "-", "-"
		if n > 0 {
			metPct = fmt.Sprintf("%.2f", float64(met)/float64(n)*100)
		}
		if h.N() > 0 {
			p99 = fmt.Sprintf("%.0f", h.Percentile(99))
		}
		g.AddRow(class, tenant, target, fmt.Sprintf("%d", n), metPct,
			fmt.Sprintf("%.1f", goodput), p99)
	}
	type classAgg struct {
		target  float64
		uniform bool
		n, met  uint64
		goodput float64
		hist    *stats.LogHist
		tenants int
	}
	var order []string
	classes := map[string]*classAgg{}
	for _, ts := range r.Tenants {
		if ts.SLOTargetNs <= 0 {
			continue
		}
		var h *stats.LogHist
		stats.MergeHist(&h, ts.ReadHistNs)
		stats.MergeHist(&h, ts.WriteHistNs)
		n := ts.Reads + ts.Writes
		row(ts.Class, ts.Name, fmt.Sprintf("%.0f", ts.SLOTargetNs), n, ts.SLOMet, ts.GoodputMRPS, h)
		a := classes[ts.Class]
		if a == nil {
			a = &classAgg{target: ts.SLOTargetNs, uniform: true}
			classes[ts.Class] = a
			order = append(order, ts.Class)
		}
		if a.target != ts.SLOTargetNs {
			a.uniform = false
		}
		a.n += n
		a.met += ts.SLOMet
		a.goodput += ts.GoodputMRPS
		stats.MergeHist(&a.hist, h)
		a.tenants++
	}
	for _, c := range order {
		a := classes[c]
		if a.tenants < 2 {
			continue
		}
		target := "-"
		if a.uniform {
			target = fmt.Sprintf("%.0f", a.target)
		}
		row(c, "(class)", target, a.n, a.met, a.goodput, a.hist)
	}
	return g
}

// thermalGrid renders the feedback-loop telemetry: one row per
// thermal zone (per cube on chains) with its temperature envelope
// and the controller's derate/shutdown activity.
func (r Result) thermalGrid() runner.Grid {
	g := runner.Grid{
		Title: fmt.Sprintf("Thermal feedback (%s)", r.Thermal.Cooling),
		Cols: []string{"Zone", "Final degC", "Peak degC", "Level", "Level-ups",
			"Shutdowns", "Throttled %", "Down %", "State"},
	}
	for z, s := range r.Thermal.Zones {
		state := "ok"
		switch {
		case s.Runaway:
			state = "RUNAWAY"
		case s.Shutdown:
			state = "down"
		case s.Level > 0:
			state = "derated"
		}
		g.AddRow(fmt.Sprintf("%d", z),
			fmt.Sprintf("%.1f", s.FinalC), fmt.Sprintf("%.1f", s.MaxC),
			fmt.Sprintf("%d", s.Level), fmt.Sprintf("%d", s.LevelUps),
			fmt.Sprintf("%d", s.Shutdowns),
			fmt.Sprintf("%.1f", s.ThrottledFrac*100), fmt.Sprintf("%.1f", s.ShutdownFrac*100),
			state)
	}
	return g
}

// Report renders the run as the runner's structured report shape, so
// scenarios share the text/CSV/JSON sinks with every figure. When the
// run was made with Options.Tail, a tail-latency percentile grid is
// appended; a thermal-feedback run likewise appends the thermal
// grid; otherwise the rendered shape is unchanged, keeping recorded
// outputs stable.
func (r Result) Report() runner.Report {
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	g := runner.Grid{
		Title: "Per-tenant traffic and totals",
		Cols: []string{"Tenant", "Ports", "Mix", "Access", "Inject", "Size",
			"Raw GB/s", "Data GB/s", "MRPS", "Lat avg ns", "Lat max ns"},
	}
	for i, ts := range r.Tenants {
		t := r.Spec.Tenants[i].withDefaults()
		mix, access, inject := describeTenant(t)
		latAvg, latMax := "-", "-"
		if h := ts.ReadHistNs; h.N() > 0 {
			latAvg, latMax = f0(h.Mean()), f0(h.Max())
		}
		g.AddRow(ts.Name, fmt.Sprintf("%d", t.Ports), mix, access, inject,
			fmt.Sprintf("%d", t.Size), f2(ts.RawGBps), f2(ts.DataGBps),
			f1(ts.MRPS), latAvg, latMax)
	}
	if len(r.Tenants) > 1 {
		latAvg, latMax := "-", "-"
		if h := r.Total.ReadHistNs; h.N() > 0 {
			latAvg, latMax = f0(h.Mean()), f0(h.Max())
		}
		g.AddRow("total", "", "", "", "", "", f2(r.Total.RawGBps),
			f2(r.Total.DataGBps), f1(r.Total.MRPS), latAvg, latMax)
	}
	topo := r.Spec.Topology
	if topo == "" {
		topo = "single"
	}
	if topo != "single" {
		cubes := r.Spec.Cubes
		if cubes == 0 {
			cubes = 4
		}
		topo = fmt.Sprintf("%s of %d cubes", topo, cubes)
	}
	if r.Spec.Backend == "ddr4" {
		channels := r.Spec.Channels
		if channels == 0 {
			channels = 1
		}
		topo = fmt.Sprintf("ddr4, %d channel(s)", channels)
	}
	grids := []runner.Grid{g}
	notes := []string{fmt.Sprintf("topology: %s; measured window %.0f us (warmup discarded)",
		topo, r.Elapsed.Microseconds())}
	if r.Tail {
		grids = append(grids, r.tailGrid())
		notes = append(notes, "tail percentiles from log-bucketed histograms (<=1.6% relative error above 31 ns, exact below); mean/max are exact")
	}
	if r.Faults || r.degraded() {
		grids = append(grids, r.resilienceGrid())
		notes = append(notes, fmt.Sprintf(
			"resilience: availability = successes/(successes+failed+abandoned); total %d errors, %d retries, %d abandoned, %.2f%% available",
			r.Total.Errors, r.Total.Retries, r.Total.Abandoned, r.Total.Availability()*100))
	}
	if r.SLO {
		grids = append(grids, r.sloGrid())
		notes = append(notes, "slo: met% counts successful completions at or under the class target (histogram-bucket granularity); abandoned and failed requests never meet an SLO")
	}
	if r.Thermal != nil {
		grids = append(grids, r.thermalGrid())
		notes = append(notes, fmt.Sprintf(
			"thermal feedback: %s, peak %.1f degC, %d accesses rejected while shut down; RC dynamics compressed to sim time (temperatures real, clock accelerated)",
			r.Thermal.Cooling, r.Thermal.MaxC(), r.Thermal.Rejected))
	}
	return runner.Report{
		ID:    "scn-" + r.Spec.Name,
		Title: fmt.Sprintf("Scenario %q: %s", r.Spec.Name, r.Spec.Description),
		Grids: grids,
		Notes: notes,
	}
}
