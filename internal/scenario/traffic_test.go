package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// stallBackend is a deterministic fake memory system for pacing
// tests: every access is served in a fixed service time, except that
// completions which would land inside [stallFrom, stallTo) are all
// deferred to stallTo. During the stall the driver's window fills and
// stays full — exactly the saturation-region backpressure shape that
// exposed the open-loop re-basing drift.
type stallBackend struct {
	eng       *sim.Engine
	service   sim.Duration
	stallFrom sim.Time
	stallTo   sim.Time
}

func (b *stallBackend) Name() string                   { return "stall" }
func (b *stallBackend) Engine() *sim.Engine            { return b.eng }
func (b *stallBackend) CapacityBytes() uint64          { return 1 << 30 }
func (b *stallBackend) CapMask() uint64                { return 1<<30 - 1 }
func (b *stallBackend) Limits() mem.Limits             { return mem.Limits{ReadDepth: 64, WriteDepth: 64} }
func (b *stallBackend) Port(int) mem.Port              { return b }
func (b *stallBackend) WireBytes(_ bool, size int) int { return size + 16 }
func (b *stallBackend) MinLatency() sim.Duration       { return b.service }
func (b *stallBackend) Counters() mem.Counters         { return mem.Counters{} }
func (b *stallBackend) CanIssue(uint64) bool           { return true }
func (b *stallBackend) WaitIssue(_ uint64, fn func())  { b.eng.Schedule(0, fn) }

func (b *stallBackend) Submit(req mem.Request, done mem.Done) {
	now := b.eng.Now()
	deliver := now + sim.Time(b.service)
	if deliver >= b.stallFrom && deliver < b.stallTo {
		deliver = b.stallTo
	}
	b.eng.Schedule(deliver-now, func() {
		done(mem.Result{Req: req, Submit: now, Deliver: deliver})
	})
}

// TestOpenLoopAbsoluteSchedule pins the headline pacing fix: an
// open-loop tenant keeps an ABSOLUTE arrival schedule, so a long
// window-full stall delays requests but never loses them — the owed
// arrivals issue back-to-back once the stall clears, and the measured
// completion count still equals rate x window. The pre-fix driver
// re-based nextIssue off Now() after each stall, silently dropping
// every arrival owed while the window was full (~216 of 800 here).
func TestOpenLoopAbsoluteSchedule(t *testing.T) {
	mesh := sim.NewMesh(1)
	be := &stallBackend{
		eng:       mesh.Shard(0).Engine(),
		service:   100 * sim.Nanosecond,
		stallFrom: 50 * sim.Microsecond,
		stallTo:   120 * sim.Microsecond,
	}
	spec := Spec{
		Name: "stall-probe",
		Tenants: []Tenant{{
			Name:   "probe",
			Inject: Injection{Mode: "open", RateMRPS: 4},
		}},
	}.withDefaults()
	o := Options{Warmup: 10 * sim.Microsecond, Measure: 200 * sim.Microsecond, Seed: 1}
	res, err := runDrivers(spec, o, mesh, []mem.Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tenants[0].Reads
	// 4 MRPS x 200 us measured window = 800 arrivals. The 70 us stall
	// owes ~273 of them; with the absolute schedule they all catch up
	// (re-basing off Now() would deliver only ~590).
	if got < 770 || got > 830 {
		t.Fatalf("measured completions = %d, want ~800 (rate x window); "+
			"a count near 590 means open-loop pacing re-based off Now() during the stall", got)
	}
	if mrps := res.Tenants[0].MRPS; math.Abs(mrps-4) > 0.2 {
		t.Errorf("measured rate %.3f MRPS, want ~4 despite the 70 us stall", mrps)
	}
}

// TestOpenLoopRealizedRate: OfferedMRPS reports the rate the rounded
// picosecond pacing interval actually realizes, for every mode.
func TestOpenLoopRealizedRate(t *testing.T) {
	approx := func(t *testing.T, got, want, tol float64, what string) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s: OfferedMRPS = %v, want ~%v", what, got, want)
		}
	}
	open := Tenant{Name: "o", Ports: 1, Inject: Injection{Mode: "open", RateMRPS: 3}}
	// interval = round(1000/3 ns) = 333333 ps -> 3.000003 MRPS.
	approx(t, open.OfferedMRPS(), 1e6/333333.0, 1e-9, "open 3 MRPS")

	closed := Tenant{Name: "c", Ports: 4}
	if got := closed.OfferedMRPS(); got != 0 {
		t.Errorf("closed-loop OfferedMRPS = %v, want 0", got)
	}

	phased := Tenant{Name: "p", Ports: 1, Inject: Injection{Mode: "phased", Phases: []RatePhase{
		{RateMRPS: 4, Duration: 10 * sim.Microsecond, Ramp: true},
		{RateMRPS: 8, Duration: 10 * sim.Microsecond},
	}}}
	// Trapezoid over the ramp: ((4+8)/2 * 10 + 8 * 10) / 20 = 7.
	approx(t, phased.OfferedMRPS(), 7, 0.01, "phased ramp cycle average")

	burst := Tenant{Name: "b", Ports: 1, Inject: Injection{
		Mode: "burst", BurstMRPS: 8, IdleMRPS: 0.5,
		BurstDwell: 10 * sim.Microsecond, IdleDwell: 30 * sim.Microsecond,
	}}
	// Dwell-weighted: (10*8 + 30*0.5) / 40 = 2.375.
	approx(t, burst.OfferedMRPS(), 2.375, 0.01, "burst dwell-weighted mean")
}

// TestPhasedFollowsSchedule: a fixed-rate phase script delivers the
// schedule's integral of arrivals on both compilation paths — the
// cycle-accurate gups.Port schedule (hmc) and the generic tenant
// drivers (ddr4).
func TestPhasedFollowsSchedule(t *testing.T) {
	phases := []RatePhase{
		{RateMRPS: 2, Duration: 30 * sim.Microsecond},
		{RateMRPS: 8, Duration: 30 * sim.Microsecond},
	}
	for _, backend := range []string{"hmc", "ddr4"} {
		spec := Spec{
			Name:    "phase-track-" + backend,
			Backend: backend,
			Tenants: []Tenant{{
				Name:   "web",
				Inject: Injection{Mode: "phased", Phases: phases},
			}},
		}
		res := MustRun(spec, Options{Warmup: 30 * sim.Microsecond, Measure: 120 * sim.Microsecond, Seed: 1})
		// The cycle anchors at run start, so the measured window
		// [30us, 150us) covers phases 8,2,8,2 = (8+2+8+2)*30 = 600
		// arrivals; both paths must track the integral.
		got := res.Tenants[0].Reads
		if got < 570 || got > 630 {
			t.Errorf("%s: measured completions = %d, want ~600 (the phase-schedule integral)", backend, got)
		}
	}
}

// TestBurstSeededReplay: the MMPP burst timeline derives entirely from
// (seed, tenant index), so a run replays byte-identically on every
// backend, and a different seed actually moves the timeline.
func TestBurstSeededReplay(t *testing.T) {
	burst := Injection{
		Mode: "burst", BurstMRPS: 4, IdleMRPS: 0.5,
		BurstDwell: 5 * sim.Microsecond, IdleDwell: 10 * sim.Microsecond,
		Outstanding: 8,
	}
	specs := []Spec{
		{Name: "burst-hmc", Tenants: []Tenant{{Name: "b", Ports: 2, Inject: burst}}},
		{Name: "burst-ddr4", Backend: "ddr4", Tenants: []Tenant{{Name: "b", Ports: 2, Inject: burst}}},
		{Name: "burst-chain", Topology: "chain", Tenants: []Tenant{{Name: "b", Ports: 2, Inject: burst}}},
	}
	o := Options{Warmup: 10 * sim.Microsecond, Measure: 40 * sim.Microsecond, Seed: 5}
	for _, spec := range specs {
		a := MustRun(spec, o)
		b := MustRun(spec, o)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed did not replay identically", spec.Name)
		}
		o2 := o
		o2.Seed = 6
		c := MustRun(spec, o2)
		if reflect.DeepEqual(a.Tenants, c.Tenants) {
			t.Errorf("%s: different seed produced identical stats", spec.Name)
		}
	}
}

// TestChurnLiveWindowClipping: a tenant with a lifecycle window is
// rated over its live overlap with the measured window, so a churned
// tenant reports its true rate, not one diluted by dead time.
func TestChurnLiveWindowClipping(t *testing.T) {
	spec := Spec{
		Name:    "churn-clip",
		Backend: "ddr4",
		Tenants: []Tenant{
			{Name: "base", Size: 64},
			{
				Name: "spike", Size: 64,
				Inject: Injection{Mode: "open", RateMRPS: 2},
				Start:  60 * sim.Microsecond, Stop: 140 * sim.Microsecond,
			},
		},
	}
	res := MustRun(spec, Options{Warmup: 30 * sim.Microsecond, Measure: 150 * sim.Microsecond, Seed: 1})
	spike := res.Tenants[1]
	// Live window [60us, 140us) = 80 us at 2 MRPS -> ~160 requests.
	if spike.Reads < 140 || spike.Reads > 180 {
		t.Fatalf("spike completions = %d, want ~160 over the 80 us live window", spike.Reads)
	}
	// Rated over the live 80 us, not the full 150 us window (which
	// would read ~1.07 MRPS).
	if math.Abs(spike.MRPS-2) > 0.3 {
		t.Errorf("spike MRPS = %.3f, want ~2 over its live window", spike.MRPS)
	}
}

// TestZeroCompletionWindows: a tenant whose lifecycle never overlaps
// the measured window (a full outage from the client's view) reports
// zeroes — never NaN or Inf — and meets no SLO vacuously.
func TestZeroCompletionWindows(t *testing.T) {
	spec := Spec{
		Name:    "dead-window",
		Backend: "ddr4",
		Tenants: []Tenant{
			{Name: "live", Size: 64},
			{
				Name: "ghost", Size: 64,
				Inject: Injection{Mode: "open", RateMRPS: 2},
				Start:  500 * sim.Microsecond,
				QoS:    QoS{Class: "ghost", TargetNs: 1000},
			},
		},
	}
	res := MustRun(spec, Options{Warmup: 10 * sim.Microsecond, Measure: 40 * sim.Microsecond, Seed: 1})
	ghost := res.Tenants[1]
	if ghost.Reads+ghost.Writes != 0 {
		t.Fatalf("ghost completed %d requests beyond the horizon", ghost.Reads+ghost.Writes)
	}
	for name, v := range map[string]float64{
		"MRPS":         ghost.MRPS,
		"GoodputMRPS":  ghost.GoodputMRPS,
		"RawGBps":      ghost.RawGBps,
		"DataGBps":     ghost.DataGBps,
		"Availability": ghost.Availability(),
		"SLOFraction":  ghost.SLOFraction(),
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ghost %s = %v, want exactly 0 on a zero-completion window", name, v)
		}
	}
	// The rendered report must survive the zero row.
	if rep := res.Report(); len(rep.Grids) == 0 {
		t.Error("empty report for zero-completion run")
	}
}

// TestTrafficValidation: every traffic-model misconfiguration is
// rejected by Validate, not discovered mid-run.
func TestTrafficValidation(t *testing.T) {
	base := func(mut func(*Spec)) Spec {
		s := Spec{
			Name: "v",
			Tenants: []Tenant{{
				Name: "t",
				Inject: Injection{
					Mode: "burst", BurstMRPS: 4, IdleMRPS: 0.5,
					BurstDwell: 5 * sim.Microsecond, IdleDwell: 10 * sim.Microsecond,
				},
			}},
		}
		if mut != nil {
			mut(&s)
		}
		return s
	}
	if err := base(nil).Validate(); err != nil {
		t.Fatalf("control burst spec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"phases outside phased mode", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "open", RateMRPS: 2,
				Phases: []RatePhase{{RateMRPS: 2, Duration: sim.Microsecond}}}
		}},
		{"burst fields outside burst mode", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "phased",
				Phases:    []RatePhase{{RateMRPS: 2, Duration: sim.Microsecond}},
				BurstMRPS: 1}
		}},
		{"phased without phases", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "phased"}
		}},
		{"phase with zero duration", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "phased",
				Phases: []RatePhase{{RateMRPS: 2}}}
		}},
		{"phase with zero rate", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "phased",
				Phases: []RatePhase{{Duration: sim.Microsecond}}}
		}},
		{"burst without dwells", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "burst", BurstMRPS: 4}
		}},
		{"burst with negative idle rate", func(s *Spec) {
			s.Tenants[0].Inject.IdleMRPS = -1
		}},
		{"open rate beyond 1 ps resolution", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "open", RateMRPS: 3e6}
		}},
		{"aggregate rate beyond 1 ps resolution", func(s *Spec) {
			s.Tenants[0].Ports = 2
			s.Tenants[0].Inject = Injection{Mode: "open", RateMRPS: 1.5e6}
		}},
		{"phase rate beyond 1 ps resolution", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "phased",
				Phases: []RatePhase{{RateMRPS: 3e6, Duration: sim.Microsecond}}}
		}},
		{"open rate whose interval overflows the clock", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "open", RateMRPS: 1e-300}
		}},
		{"NaN open rate", func(s *Spec) {
			s.Tenants[0].Inject = Injection{Mode: "open", RateMRPS: math.NaN()}
		}},
		{"NaN idle rate", func(s *Spec) {
			s.Tenants[0].Inject.IdleMRPS = math.NaN()
		}},
		{"lifecycle stop not after start", func(s *Spec) {
			s.Tenants[0].Start = 10 * sim.Microsecond
			s.Tenants[0].Stop = 10 * sim.Microsecond
		}},
		{"negative lifecycle start", func(s *Spec) {
			s.Tenants[0].Start = -sim.Microsecond
		}},
		{"QoS class without target", func(s *Spec) {
			s.Tenants[0].QoS = QoS{Class: "gold"}
		}},
		{"negative SLO target", func(s *Spec) {
			s.Tenants[0].QoS = QoS{TargetNs: -1}
		}},
	}
	for _, c := range cases {
		if err := base(c.mut).Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
		}
	}
}

// TestParseFormatTrafficRoundTrip: FormatTraffic renders the
// canonical grammar and ParseTraffic of the result is the identity.
func TestParseFormatTrafficRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
	}{
		{"open:4", "open:4"},
		{"open:0.5", "open:0.5"},
		{"phases:2@100us,~8@100us", "phases:2@100us,~8@100us"},
		{"phases:1.5@1500ns", "phases:1.5@1500ns"},
		{"burst:8/0.5@20us/80us", "burst:8/0.5@20us/80us"},
		{"burst:12/0@1ms/2ms", "burst:12/0@1ms/2ms"},
		// The diurnal preset lowers to its phase script.
		{"diurnal:2..16@400us", "phases:2@100us,~2@100us,16@100us,~16@100us"},
	}
	for _, c := range cases {
		inj, err := ParseTraffic(c.in)
		if err != nil {
			t.Errorf("ParseTraffic(%q): %v", c.in, err)
			continue
		}
		got := FormatTraffic(inj)
		if got != c.canonical {
			t.Errorf("FormatTraffic(ParseTraffic(%q)) = %q, want %q", c.in, got, c.canonical)
		}
		back, err := ParseTraffic(got)
		if err != nil {
			t.Errorf("ParseTraffic(%q) (canonical form): %v", got, err)
			continue
		}
		if !reflect.DeepEqual(inj, back) {
			t.Errorf("%q does not round-trip: %+v vs %+v", c.in, inj, back)
		}
	}
	if got := FormatTraffic(Injection{}); got != "" {
		t.Errorf("FormatTraffic(closed loop) = %q, want empty", got)
	}
}

// TestParseTrafficErrors: malformed grammar is a parse error, never a
// zero-valued injection.
func TestParseTrafficErrors(t *testing.T) {
	bad := []string{
		"",
		"open",
		"open:",
		"open:x",
		"open:-1",
		"open:NaN",
		"phases:",
		"phases:2",
		"phases:2@",
		"phases:2@10",  // missing duration suffix
		"phases:2@10m", // no such unit
		"burst:8@10us/20us",
		"burst:8/1@10us",
		"burst:8/1@10us/x",
		"diurnal:2@100us",
		"diurnal:2..x@100us",
		"diurnal:1..2@3ps", // period too short to split
		"warp:1",
	}
	for _, s := range bad {
		if _, err := ParseTraffic(s); err == nil {
			t.Errorf("ParseTraffic(%q) accepted malformed input", s)
		}
	}
}

// TestApplyTrafficOverlay: the CLI overlay replaces every tenant's
// injection (keeping its window) and sets the default SLO only where
// the tenant has none.
func TestApplyTrafficOverlay(t *testing.T) {
	s := Spec{
		Name: "overlay",
		Tenants: []Tenant{
			{Name: "a", Inject: Injection{Outstanding: 16}},
			{Name: "b", QoS: QoS{Class: "gold", TargetNs: 900}},
		},
	}
	out, err := applyTraffic(s, Options{Traffic: "open:4", SLONs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	a, b := out.Tenants[0], out.Tenants[1]
	if a.Inject.Mode != "open" || a.Inject.RateMRPS != 4 {
		t.Errorf("tenant a injection = %+v, want open:4", a.Inject)
	}
	if a.Inject.Outstanding != 16 {
		t.Errorf("tenant a lost its Outstanding window: %+v", a.Inject)
	}
	if a.QoS.TargetNs != 2000 {
		t.Errorf("tenant a TargetNs = %v, want the 2000 default", a.QoS.TargetNs)
	}
	if b.QoS.TargetNs != 900 || b.QoS.Class != "gold" {
		t.Errorf("tenant b QoS overwritten: %+v", b.QoS)
	}
	if s.Tenants[0].Inject.Mode != "" {
		t.Error("applyTraffic mutated the input spec")
	}
	if _, err := applyTraffic(s, Options{Traffic: "warp:1"}); err == nil {
		t.Error("invalid traffic string accepted")
	}
	if _, err := Run(s, Options{Traffic: "warp:1"}); err == nil {
		t.Error("Run accepted an invalid traffic overlay")
	}
}

// TestTrafficLibrary: the production traffic-model specs validate and
// the burst spec runs with both tenants live and SLO accounting on.
func TestTrafficLibrary(t *testing.T) {
	specs := Traffic()
	if len(specs) != 3 {
		t.Fatalf("%d traffic specs, want 3", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("traffic spec %q invalid: %v", s.Name, err)
		}
	}
	res := MustRun(specs[0], Options{Warmup: 10 * sim.Microsecond, Measure: 40 * sim.Microsecond, Seed: 1})
	if !res.SLO {
		t.Error("burst spec did not activate SLO accounting")
	}
	for _, ts := range res.Tenants {
		if ts.Reads == 0 {
			t.Errorf("burst tenant %q measured no completions", ts.Name)
		}
		if ts.SLOTargetNs <= 0 {
			t.Errorf("burst tenant %q lost its SLO target", ts.Name)
		}
	}
}

// FuzzRatePhases: ParseTraffic never panics, and every accepted
// string's canonical form round-trips to a deep-equal injection (the
// cache encoding depends on this being the identity).
func FuzzRatePhases(f *testing.F) {
	for _, s := range []string{
		"open:4",
		"phases:2@100us,~8@100us",
		"burst:8/0.5@20us/80us",
		"diurnal:2..16@400us",
		"phases:1.5@1500ns,0@1ps",
		"open:",
		"warp:1",
		"phases:~~2@1us",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		inj, err := ParseTraffic(s)
		if err != nil {
			return
		}
		canon := FormatTraffic(inj)
		back, err := ParseTraffic(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(inj, back) {
			t.Fatalf("round-trip mismatch for %q via %q: %+v vs %+v", s, canon, inj, back)
		}
		if FormatTraffic(back) != canon {
			t.Fatalf("canonical form %q not a fixed point (got %q)", canon, FormatTraffic(back))
		}
		// Durations render in the largest dividing unit; a second
		// round must already be stable.
		if strings.Contains(canon, "@@") {
			t.Fatalf("malformed canonical form %q", canon)
		}
	})
}
