package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hmcsim/internal/sim"
)

// This file is the production traffic model layer: phase-scripted
// rate curves (with linear ramps and a compact diurnal preset),
// Markov-modulated bursty arrivals, and the compact grammar the CLIs
// accept for overlaying any of them onto a spec. They all compile onto
// one arrivals clock, which both the tenant drivers and the gups.Port
// loops advance: an absolute arrival schedule, so backpressure delays
// requests but never depresses offered load.

// ratePacing converts an arrival rate in MRPS to the kernel's
// picosecond pacing interval, the one rounding every mode shares:
// rounding in picoseconds keeps the realized rate within rounding
// error of the request instead of truncating to whole nanoseconds.
// Validate rejects rates whose interval would round below 1 ps or
// overflow the clock, so the clamp here only guards mid-ramp float
// noise.
func ratePacing(aggMRPS float64) sim.Duration {
	iv := sim.Duration(math.Round(1000.0 / aggMRPS * float64(sim.Nanosecond)))
	if iv < 1 {
		iv = 1
	}
	return iv
}

// realizedMRPS is the aggregate rate the rounded pacing interval
// actually delivers.
func realizedMRPS(aggMRPS float64) float64 {
	if aggMRPS <= 0 {
		return 0
	}
	return 1e6 / float64(ratePacing(aggMRPS))
}

// OfferedMRPS is the tenant-aggregate open-loop arrival rate the
// kernel realizes once pacing intervals round to its picosecond
// clock: the reciprocal of the rounded interval for fixed rates, the
// cycle average for phase scripts (trapezoidal across ramps), and the
// dwell-weighted mean for burst mode. 0 for closed-loop tenants.
// Load-sweep reports show it beside the requested rate, so interval
// rounding is never silent.
func (t Tenant) OfferedMRPS() float64 {
	t = t.withDefaults()
	ports := float64(t.Ports)
	in := t.Inject
	switch in.Mode {
	case "open":
		return realizedMRPS(in.RateMRPS * ports)
	case "phased":
		var cycle, sum float64
		for i, p := range in.Phases {
			d := float64(p.Duration)
			cycle += d
			r := realizedMRPS(p.RateMRPS * ports)
			if p.Ramp {
				next := in.Phases[(i+1)%len(in.Phases)].RateMRPS
				r = (r + realizedMRPS(next*ports)) / 2
			}
			sum += d * r
		}
		if cycle == 0 {
			return 0
		}
		return sum / cycle
	case "burst":
		bd, id := float64(in.BurstDwell), float64(in.IdleDwell)
		if bd+id == 0 {
			return 0
		}
		return (bd*realizedMRPS(in.BurstMRPS*ports) + id*realizedMRPS(in.IdleMRPS*ports)) / (bd + id)
	}
	return 0
}

// DiurnalPhases builds a compact day/night rate script: a trough hold
// at lowMRPS, a morning ramp, a peak hold at highMRPS, and an evening
// ramp back down, cycling every period (the schedule is cyclic, so
// the last ramp lands on the first phase's trough).
func DiurnalPhases(period sim.Duration, lowMRPS, highMRPS float64) []RatePhase {
	q := period / 4
	return []RatePhase{
		{RateMRPS: lowMRPS, Duration: period - 3*q},
		{RateMRPS: lowMRPS, Duration: q, Ramp: true},
		{RateMRPS: highMRPS, Duration: q},
		{RateMRPS: highMRPS, Duration: q, Ramp: true},
	}
}

// validateInject checks the tenant's injection discipline: the
// mode-specific fields are present exactly when their mode is
// selected (one canonical spelling per traffic shape, so the cache
// encoding stays collision-free), and every configured rate stays
// within the kernel's picosecond pacing resolution instead of
// silently simulating a different rate.
func (t Tenant) validateInject() error {
	in := t.Inject
	if in.Mode != "phased" && len(in.Phases) > 0 {
		return fmt.Errorf("rate phases need injection mode \"phased\" (got %q)", in.Mode)
	}
	if in.Mode != "burst" && (in.BurstMRPS != 0 || in.IdleMRPS != 0 || in.BurstDwell != 0 || in.IdleDwell != 0) {
		return fmt.Errorf("burst rate/dwell fields need injection mode \"burst\" (got %q)", in.Mode)
	}
	switch in.Mode {
	case "closed":
		return nil
	case "open":
		if in.RateMRPS <= 0 {
			return fmt.Errorf("open-loop injection needs RateMRPS > 0")
		}
		return t.checkRate("RateMRPS", in.RateMRPS)
	case "phased":
		if len(in.Phases) == 0 {
			return fmt.Errorf("injection mode \"phased\" needs at least one rate phase")
		}
		for i, p := range in.Phases {
			if p.Duration <= 0 {
				return fmt.Errorf("rate phase %d needs Duration > 0", i)
			}
			if p.RateMRPS <= 0 {
				return fmt.Errorf("rate phase %d needs RateMRPS > 0", i)
			}
			if err := t.checkRate(fmt.Sprintf("phase %d rate", i), p.RateMRPS); err != nil {
				return err
			}
		}
		return nil
	case "burst":
		if in.BurstMRPS <= 0 {
			return fmt.Errorf("burst injection needs BurstMRPS > 0")
		}
		if in.IdleMRPS < 0 {
			return fmt.Errorf("burst injection needs IdleMRPS >= 0")
		}
		if in.BurstDwell <= 0 || in.IdleDwell <= 0 {
			return fmt.Errorf("burst injection needs mean BurstDwell and IdleDwell > 0")
		}
		if err := t.checkRate("BurstMRPS", in.BurstMRPS); err != nil {
			return err
		}
		if in.IdleMRPS != 0 {
			return t.checkRate("IdleMRPS", in.IdleMRPS)
		}
		return nil
	}
	return fmt.Errorf("unknown injection mode %q (want closed, open, phased or burst)", in.Mode)
}

// checkRate rejects per-port rates whose aggregate pacing interval
// would round below the kernel's 1 ps clock — the run would silently
// realize a different rate than requested — and NaN rates and rates
// whose one-port interval, the longest a run paces, overflows the
// clock's int64 picoseconds.
func (t Tenant) checkRate(what string, mrps float64) error {
	if math.IsNaN(mrps) {
		return fmt.Errorf("%s is NaN", what)
	}
	agg := mrps * float64(t.Ports)
	if math.Round(1000.0/agg*float64(sim.Nanosecond)) < 1 {
		return fmt.Errorf("%s %g MRPS x %d ports is beyond the kernel's 1 ps pacing resolution (aggregate rate must stay <= 2e6 MRPS)", what, mrps, t.Ports)
	}
	if 1000.0/mrps*float64(sim.Nanosecond) >= math.MaxInt64 { // 2^63 as a float64
		return fmt.Errorf("%s %g MRPS paces arrivals further apart than the kernel's int64 picosecond clock reaches (rate must stay >= 1.1e-13 MRPS)", what, mrps)
	}
	return nil
}

// needsGenericDrivers reports whether any tenant uses a traffic
// feature that moves an hmc spec onto the tenant drivers, like thermal
// and fault runs, at any group count: ramped phase curves, bursty
// arrivals, or lifecycle start/stop. gups.Port has no lifecycle gate,
// and the recorded ramp and burst runs were made on the drivers;
// fixed-rate phase scripts stay on the gups.Port loops.
func (s Spec) needsGenericDrivers() bool {
	for _, t := range s.Tenants {
		if t.Start != 0 || t.Stop != 0 || t.Inject.Mode == "burst" {
			return true
		}
		for _, p := range t.Inject.Phases {
			if p.Ramp {
				return true
			}
		}
	}
	return false
}

// arrivals is the open-loop arrival clock every paced source advances:
// a tenant driver at the tenant's aggregate rate, a gups port at one
// port's share (as its gups.Arrivals). The schedule is absolute: Next
// steps from the previous arrival instant along the rate curve — a
// fixed interval, the cyclic phase script anchored at the tenant's
// start, or the 2-state MMPP burst process — and never from the
// current time, so a stalled source delays arrivals but cannot drop
// them. Burst state advances with every call, so each source owns its
// clock and calls Next once per arrival, in order.
type arrivals struct {
	interval sim.Duration // fixed spacing (mode "open")
	phases   []phaseSeg   // cyclic rate curve (mode "phased")
	cycle    sim.Duration
	start    sim.Time // the phase cycle's anchor
	// Burst (MMPP) state: per-state pacing intervals (idleIv 0 =
	// silent idle), mean dwells in ps, and the seeded state timeline,
	// walked no further than end.
	burstIv, idleIv     sim.Duration
	burstMean, idleMean float64
	rng                 *sim.RNG
	inBurst             bool
	stateEnd, end       sim.Time
}

// newArrivals builds tenant t's arrival clock at ports times its
// per-port rates, anchored at the tenant's lifecycle start and bounded
// by end; nil for closed loop. seed keys the burst timeline on its own
// stream, independent of the mix draws and fixed per (run seed,
// source).
func newArrivals(t Tenant, ports int, seed uint64, end sim.Time) *arrivals {
	scale := float64(ports)
	in := t.Inject
	a := &arrivals{start: sim.Time(t.Start), end: end}
	switch in.Mode {
	case "open":
		a.interval = ratePacing(in.RateMRPS * scale)
	case "phased":
		a.phases, a.cycle = lowerPhases(in.Phases, scale)
	case "burst":
		a.burstIv = ratePacing(in.BurstMRPS * scale)
		if in.IdleMRPS > 0 {
			a.idleIv = ratePacing(in.IdleMRPS * scale)
		}
		a.burstMean, a.idleMean = float64(in.BurstDwell), float64(in.IdleDwell)
		a.rng = sim.NewRNG(seed ^ 0x3c3c3c3c)
		a.inBurst = true
		a.stateEnd = a.start + expDwell(a.rng, a.burstMean)
	default:
		return nil
	}
	return a
}

// Next returns the arrival instant that follows the one at t.
func (a *arrivals) Next(t sim.Time) sim.Time {
	switch {
	case a.phases != nil:
		return t + a.phaseInterval(t)
	case a.burstMean > 0:
		return a.burstNext(t)
	}
	return t + a.interval
}

// phaseInterval evaluates the arrival spacing of the cyclic phase
// script at schedule time t (linear interpolation across ramps).
func (a *arrivals) phaseInterval(t sim.Time) sim.Duration {
	off := sim.Duration(t-a.start) % a.cycle
	for _, s := range a.phases {
		if off < s.start+s.dur {
			r := s.r0
			if s.r1 != s.r0 {
				r += (s.r1 - s.r0) * float64(off-s.start) / float64(s.dur)
			}
			return ratePacing(r)
		}
	}
	return ratePacing(a.phases[len(a.phases)-1].r1)
}

// burstNext advances the arrival schedule through the 2-state MMPP:
// within a state arrivals space at the state's interval; crossing a
// state boundary re-draws the dwell and continues in the other state
// (a silent idle state just skips to its end). Bounded by end so a
// long silent tail cannot spin the dwell walk forever.
func (a *arrivals) burstNext(t sim.Time) sim.Time {
	for {
		if t >= a.end {
			return t
		}
		for t >= a.stateEnd {
			a.inBurst = !a.inBurst
			mean := a.idleMean
			if a.inBurst {
				mean = a.burstMean
			}
			a.stateEnd += expDwell(a.rng, mean)
		}
		iv := a.idleIv
		if a.inBurst {
			iv = a.burstIv
		}
		if iv == 0 || t+sim.Time(iv) > a.stateEnd {
			// No arrival fits before the state flips; resume the walk
			// at the boundary.
			t = a.stateEnd
			continue
		}
		return t + sim.Time(iv)
	}
}

// expDwell draws an exponential state dwell with the given mean (ps),
// clamped to the kernel clock.
func expDwell(rng *sim.RNG, mean float64) sim.Time {
	dw := sim.Time(math.Round(-mean * math.Log(1-rng.Float64())))
	if dw < 1 {
		dw = 1
	}
	return dw
}

// phaseSeg is one lowered piece of a cyclic rate curve, in the
// clock's (scaled) MRPS.
type phaseSeg struct {
	start  sim.Duration // offset of the segment within the cycle
	dur    sim.Duration
	r0, r1 float64
}

// lowerPhases lowers a phase script, every rate scaled by scale, to
// rate segments plus the cycle length.
func lowerPhases(ph []RatePhase, scale float64) ([]phaseSeg, sim.Duration) {
	segs := make([]phaseSeg, len(ph))
	var off sim.Duration
	for i, p := range ph {
		r0 := p.RateMRPS * scale
		r1 := r0
		if p.Ramp {
			r1 = ph[(i+1)%len(ph)].RateMRPS * scale
		}
		segs[i] = phaseSeg{start: off, dur: p.Duration, r0: r0, r1: r1}
		off += p.Duration
	}
	return segs, off
}

// applyTraffic overlays the Options-level traffic model and default
// SLO target onto the spec's tenants (the CLI surface): -traffic
// replaces every tenant's injection discipline (each keeps its
// Outstanding window), -slo-ns sets a latency target on every tenant
// without its own QoS. The overlaid spec then passes through Validate
// like any other.
func applyTraffic(s Spec, o Options) (Spec, error) {
	if o.Traffic == "" && o.SLONs <= 0 {
		return s, nil
	}
	ts := append([]Tenant(nil), s.Tenants...)
	if o.Traffic != "" {
		inj, err := ParseTraffic(o.Traffic)
		if err != nil {
			return Spec{}, err
		}
		for i := range ts {
			over := inj
			over.Outstanding = ts[i].Inject.Outstanding
			ts[i].Inject = over
		}
	}
	if o.SLONs > 0 {
		for i := range ts {
			if ts[i].QoS.TargetNs == 0 {
				ts[i].QoS.TargetNs = o.SLONs
			}
		}
	}
	s.Tenants = ts
	return s, nil
}

// ParseTraffic parses the compact traffic grammar the CLIs accept
// (rates are per-port MRPS; durations are sim.ParseDuration's, the
// grammar fault plans use):
//
//	open:4                         fixed open loop at 4 MRPS
//	phases:2@100us,~8@100us        phase script; ~ ramps to the next rate
//	burst:8/0.5@20us/80us          MMPP burst/idle rates @ mean dwells
//	diurnal:2..16@400us            day/night preset (low..high @ period)
//
// FormatTraffic renders the canonical spelling; ParseTraffic of the
// result round-trips (the FuzzRatePhases contract).
func ParseTraffic(s string) (Injection, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Injection{}, fmt.Errorf("traffic: %q needs a kind prefix (open:, phases:, burst: or diurnal:)", s)
	}
	switch kind {
	case "open":
		r, err := parseRate(rest)
		if err != nil {
			return Injection{}, err
		}
		return Injection{Mode: "open", RateMRPS: r}, nil
	case "phases":
		var phases []RatePhase
		for _, tok := range strings.Split(rest, ",") {
			ramp := strings.HasPrefix(tok, "~")
			tok = strings.TrimPrefix(tok, "~")
			rs, ds, ok := strings.Cut(tok, "@")
			if !ok {
				return Injection{}, fmt.Errorf("traffic: phase %q needs rate@duration", tok)
			}
			r, err := parseRate(rs)
			if err != nil {
				return Injection{}, err
			}
			d, err := sim.ParseDuration(ds)
			if err != nil {
				return Injection{}, err
			}
			phases = append(phases, RatePhase{RateMRPS: r, Duration: d, Ramp: ramp})
		}
		return Injection{Mode: "phased", Phases: phases}, nil
	case "burst":
		rates, dwells, ok := strings.Cut(rest, "@")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst %q needs burst/idle@dwell/dwell", rest)
		}
		brs, irs, ok := strings.Cut(rates, "/")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst rates %q need burst/idle", rates)
		}
		bds, ids, ok := strings.Cut(dwells, "/")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst dwells %q need burst/idle", dwells)
		}
		br, err := parseRate(brs)
		if err != nil {
			return Injection{}, err
		}
		ir, err := parseRate(irs)
		if err != nil {
			return Injection{}, err
		}
		bd, err := sim.ParseDuration(bds)
		if err != nil {
			return Injection{}, err
		}
		id, err := sim.ParseDuration(ids)
		if err != nil {
			return Injection{}, err
		}
		return Injection{Mode: "burst", BurstMRPS: br, IdleMRPS: ir, BurstDwell: bd, IdleDwell: id}, nil
	case "diurnal":
		spanStr, ps, ok := strings.Cut(rest, "@")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: diurnal %q needs low..high@period", rest)
		}
		los, his, ok := strings.Cut(spanStr, "..")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: diurnal span %q needs low..high", spanStr)
		}
		lo, err := parseRate(los)
		if err != nil {
			return Injection{}, err
		}
		hi, err := parseRate(his)
		if err != nil {
			return Injection{}, err
		}
		period, err := sim.ParseDuration(ps)
		if err != nil {
			return Injection{}, err
		}
		if period < 4 {
			return Injection{}, fmt.Errorf("traffic: diurnal period %s too short to split into phases", ps)
		}
		return Injection{Mode: "phased", Phases: DiurnalPhases(period, lo, hi)}, nil
	}
	return Injection{}, fmt.Errorf("traffic: unknown kind %q (want open, phases, burst or diurnal)", kind)
}

// FormatTraffic renders an injection in the ParseTraffic grammar
// (diurnal presets render as the phase script they lower to). Closed
// loop renders as the empty string — there is nothing to overlay.
func FormatTraffic(in Injection) string {
	switch in.Mode {
	case "open":
		return "open:" + formatRate(in.RateMRPS)
	case "phased":
		parts := make([]string, len(in.Phases))
		for i, p := range in.Phases {
			ramp := ""
			if p.Ramp {
				ramp = "~"
			}
			parts[i] = fmt.Sprintf("%s%s@%s", ramp, formatRate(p.RateMRPS), sim.FormatDuration(p.Duration))
		}
		return "phases:" + strings.Join(parts, ",")
	case "burst":
		return fmt.Sprintf("burst:%s/%s@%s/%s",
			formatRate(in.BurstMRPS), formatRate(in.IdleMRPS),
			sim.FormatDuration(in.BurstDwell), sim.FormatDuration(in.IdleDwell))
	}
	return ""
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return 0, fmt.Errorf("traffic: bad rate %q (want a non-negative MRPS number)", s)
	}
	return r, nil
}

func formatRate(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}
